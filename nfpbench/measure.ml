(* One benchmark run of one workload: set-up, input generation, the
   timed window of repeated simulations, the correctness check, and —
   in a traced run — the per-layer ledger. *)

module Packet = Nfp_packet.Packet
module H = Nfp_sim.Harness
module Sys_ = Nfp_infra.System

(* ------------------------------------------------------------------ *)
(* One simulated run                                                   *)
(* ------------------------------------------------------------------ *)

type check = {
  mismatched : int;  (** delivered bytes differ from the sequential reference *)
  duplicates : int;  (** deliveries of a pid already delivered *)
  ledger_ok : bool;
}

type sim = {
  result : H.result;
  host_ns : int;  (** [Harness.run] minus the deployment's own set-up *)
  slowdown : float;  (** the host's speed over the run, see {!Clock.calibrated} *)
  words : int;  (** minor words over the same window *)
  digest : string;  (** hex; every delivery's pid, exact time bits and bytes *)
  last_delivery_ns : float;  (** simulated time of the last delivery *)
  counters : H.classifier_counters;
  cores : Sys_.core_stats list;
  check : check option;
}

(* Deliveries, recorded into preallocated arrays during the run and
   digested after it. *)
type log = {
  mutable n : int;
  mutable pid : int array;
  mutable at : float array;
  mutable pkt : Packet.t array;
}

let record log engine ~pid pkt =
  if log.n = Array.length log.pid then begin
    let grow a fill = Array.append a (Array.make (Array.length a + 1) fill) in
    log.pid <- grow log.pid 0;
    log.at <- grow log.at 0.0;
    log.pkt <- grow log.pkt pkt
  end;
  log.pid.(log.n) <- Int64.to_int pid;
  log.at.(log.n) <- Nfp_sim.Engine.now engine;
  log.pkt.(log.n) <- pkt;
  log.n <- log.n + 1

let bytes_digest p = Digest.bytes (Packet.to_bytes p)

let model_digest log =
  let b = Buffer.create (log.n * 32) in
  for k = 0 to log.n - 1 do
    Buffer.add_int64_le b (Int64.of_int log.pid.(k));
    Buffer.add_int64_le b (Int64.bits_of_float log.at.(k));
    Buffer.add_string b (bytes_digest log.pkt.(k))
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* [expected.(pid)] is the digest of the sequential reference's output
   bytes, [None] when the reference drops the packet. *)
let check_log (r : H.result) log (expected : string option array) =
  let seen = Bytes.make (Array.length expected) '\000' in
  let mismatched = ref 0 and duplicates = ref 0 in
  for k = 0 to log.n - 1 do
    let pid = log.pid.(k) in
    if Bytes.get seen pid <> '\000' then incr duplicates
    else begin
      Bytes.set seen pid '\001';
      if expected.(pid) <> Some (bytes_digest log.pkt.(k)) then incr mismatched
    end
  done;
  let d = r.health.drops in
  let ledger_ok =
    r.in_flight = 0
    && r.offered = r.completed + d.ingress_rejected + d.nf_dropped + d.no_match + d.shed
    && d.ingress_rejected = r.ring_drops && d.nf_dropped = r.nf_drops
    && d.no_match = r.unmatched && d.shed = r.shed && d.fault_dropped = 0
    && d.flush_lost = 0
  in
  { mismatched = !mismatched; duplicates = !duplicates; ledger_ok }

let simulate ?tracer ?expected (w : Workload.t) graphs (inputs : Packet.t array) =
  (* Fresh packets per run (the dataplane rewrites them in place), made
     before the timed window, which then starts from a collected heap. *)
  let work = Array.map Packet.full_copy inputs in
  let n = Array.length work in
  let log = { n = 0; pid = Array.make n 0; at = Array.make n 0.0; pkt = Array.make n work.(0) } in
  let sys = ref None and stats = ref (fun () -> []) in
  let make_ns = ref 0 and make_words = ref 0 in
  let make engine ~output =
    let w0 = Clock.minor_words () and t0 = Clock.now_ns () in
    let output ~pid pkt =
      record log engine ~pid pkt;
      output ~pid pkt
    in
    let s =
      match tracer with
      | None -> Workload.deploy ~stats w graphs engine ~output
      | Some tr ->
          Layers.wrap_system tr
            (Workload.deploy ~wrap:(Layers.wrap_nf tr) ~stats w graphs engine ~output)
    in
    sys := Some s;
    make_ns := Clock.now_ns () - t0;
    make_words := Clock.minor_words () - w0;
    s
  in
  Gc.full_major ();
  let (result, host_ns, words), slowdown =
    Clock.calibrated (fun () ->
        let w0 = Clock.minor_words () and t0 = Clock.now_ns () in
        let result = H.run ~make ~gen:(Array.get work) ~arrivals:w.arrivals ~packets:n () in
        (result, Clock.now_ns () - t0 - !make_ns, Clock.minor_words () - w0 - !make_words))
  in
  let counters =
    match !sys with Some s -> s.classifier () | None -> H.no_classifier_counters
  in
  {
    result;
    host_ns;
    slowdown;
    words;
    digest = model_digest log;
    last_delivery_ns = (if log.n = 0 then nan else log.at.(log.n - 1));
    counters;
    cores = !stats ();
    check = Option.map (check_log result log) expected;
  }

(* The modeled observables of two runs of one seed, traced or not, must
   agree exactly. *)
let core_key (c : Sys_.core_stats) = (c.core, c.busy_ns, c.stalled_ns, c.processed, c.rejected)

let same_model a b =
  a.digest = b.digest && a.counters = b.counters
  && a.result.completed = b.result.completed
  && a.result.delivered = b.result.delivered
  && Int64.bits_of_float a.result.duration_ns = Int64.bits_of_float b.result.duration_ns
  && a.result.health = b.result.health
  && List.map core_key a.cores = List.map core_key b.cores

let raw_pps s = float_of_int s.result.offered /. (float_of_int s.host_ns /. 1e9)

(* At reference host speed. *)
let sim_pps s = raw_pps s *. s.slowdown

(* ------------------------------------------------------------------ *)
(* Set-up, inputs, reference                                           *)
(* ------------------------------------------------------------------ *)

(* Policy/graph to a ready system at reference host speed. Set-ups run
   in batches of about [batch_s] seconds, each batch from a collected
   heap and between one pair of calibrations by [Clock.alloc_kernel],
   for [budget] seconds (at least 5 batches); the result is the median
   over the batches of the time per set-up. *)
let batch_s = 0.1

let setup_seconds ~budget (w : Workload.t) =
  let once () =
    let graphs = w.compile () in
    let engine = Nfp_sim.Engine.create () in
    ignore (Workload.deploy w graphs engine ~output:(fun ~pid:_ _ -> ()))
  in
  once ();
  let t0 = Clock.now_ns () in
  once ();
  let size = max 1 (int_of_float (batch_s /. Float.max 1e-6 (Clock.seconds_since t0))) in
  let batch () =
    Gc.full_major ();
    let t, slowdown =
      Clock.calibrated ~kernel:Clock.alloc_kernel (fun () ->
          let t0 = Clock.now_ns () in
          for _ = 1 to size do
            once ()
          done;
          Clock.seconds_since t0)
    in
    t /. float_of_int size /. slowdown
  in
  let start = Clock.now_ns () in
  let rec go acc k =
    if k >= 5 && Clock.seconds_since start > budget then acc else go (batch () :: acc) (k + 1)
  in
  Clock.median (go [] 0)

(* The sequential reference: each packet through fresh instances of its
   graph's [serial_order], in offered order. *)
let reference (graphs : Workload.graph list) (inputs : Packet.t array) mids =
  let chains =
    Array.of_list
      (List.map
         (fun (g : Workload.graph) ->
           let lookup = Workload.instances ~wrap:Fun.id g.kinds in
           List.map lookup g.plan.serial_order)
         graphs)
  in
  Array.mapi
    (fun i p ->
      let mid = mids.(i) in
      if mid = 0 then None
      else
        Option.map bytes_digest
          (Nfp_infra.Reference.run_sequential ~nfs:chains.(mid - 1) (Packet.full_copy p)))
    inputs

(* Bisection steps of the knee search, from [Workload.t.knee_hi] down. *)
let knee_iterations = 8

(* Over the whole offered stream: a shorter one would measure how much
   the rings can buffer rather than the rate the busiest core sustains. *)
let knee_mpps (w : Workload.t) graphs (inputs : Packet.t array) =
  (* Each probe starts from a collected heap, which keeps the search's
     memory at one probe's worth. *)
  let make engine ~output =
    Gc.full_major ();
    Workload.deploy ~armed:false w graphs engine ~output
  in
  H.max_lossless_mpps ~make
    ~gen:(fun i -> Packet.full_copy inputs.(i))
    ~packets:(Array.length inputs) ~hi:w.knee_hi ~iterations:knee_iterations ~domains:1 ()

(* ------------------------------------------------------------------ *)
(* A whole run                                                         *)
(* ------------------------------------------------------------------ *)

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  end_to_end : (string * float * string) list;
  per_layer : (string * float * string) list;
  digest : string;  (** model_digest of the checked run *)
  notes : string list;  (** human-readable lines printed before the result *)
}

let nf_kinds = [ "Forwarder"; "Firewall"; "Monitor"; "LoadBalancer"; "IDS" ]

let drop_buckets (d : H.drops) =
  [
    ("ingress_rejected", d.ingress_rejected);
    ("internal_rejected", d.internal_rejected);
    ("nf_dropped", d.nf_dropped);
    ("no_match", d.no_match);
    ("fault_dropped", d.fault_dropped);
    ("flush_lost", d.flush_lost);
    ("merge_timed_out", d.merge_timed_out);
    ("shed", d.shed);
    ("degraded", d.degraded);
  ]

let prefixed p (c : Sys_.core_stats) =
  String.length c.core >= String.length p && String.sub c.core 0 (String.length p) = p

(* Classifier core, busiest NF core and busiest merger: the three roles
   every deployment has (a merger-less plan reports zeros). *)
let core_roles duration (cores : Sys_.core_stats list) =
  let busiest p =
    List.fold_left
      (fun best (c : Sys_.core_stats) ->
        match best with
        | Some (b : Sys_.core_stats) when b.busy_ns >= c.busy_ns -> best
        | _ -> if prefixed p c then Some c else best)
      None cores
  in
  List.concat_map
    (fun (role, c) ->
      let util, stalled, rejected =
        match c with
        | None -> (0.0, 0.0, 0)
        | Some (c : Sys_.core_stats) ->
            (c.busy_ns /. duration, c.stalled_ns /. duration, c.rejected)
      in
      [
        (Printf.sprintf "core.%s.util" role, util, "ratio");
        (Printf.sprintf "core.%s.stalled_frac" role, stalled, "ratio");
        (Printf.sprintf "core.%s.rejected" role, float_of_int rejected, "count");
      ])
    [
      ("classifier", busiest "classifier");
      ("nf_max", busiest "mid");
      ("merger", busiest "merger#");
    ]

(* A core name with every character a metric name cannot hold as '_'. *)
let sanitize =
  String.map (function
    | ('A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-') as c -> c
    | _ -> '_')

let per_run f sims = Clock.median (List.map f sims)

(* The traced simulations' spans. *)
let span_layers ~pktgen:(pktgen_ns, pktgen_words) ~pps traced =
  let sims = List.map fst traced and tracers = List.map snd traced in
  let tpps = per_run sim_pps sims in
  let sum f = List.fold_left (fun n tr -> n +. f tr) 0.0 tracers in
  (* Host time of the traced runs without the tracing's own cost. *)
  let host_net =
    float_of_int (List.fold_left (fun n s -> n + s.host_ns) 0 sims) -. sum Layers.tracing_ns
  in
  let share ns = if host_net > 0.0 then ns /. host_net else 0.0 in
  let per_call calls x = if calls = 0 then 0.0 else x /. float_of_int calls in
  let kind_sum kind f =
    sum (fun tr ->
        match Hashtbl.find_opt tr.Layers.by_kind kind with Some a -> f a | None -> 0.0)
  in
  let nf kind =
    let calls = int_of_float (kind_sum kind (fun a -> float_of_int a.calls)) in
    let ns = kind_sum kind Layers.self_ns in
    [
      (Printf.sprintf "nf.%s.ns_per_call" kind, per_call calls ns, "ns");
      ( Printf.sprintf "nf.%s.words_per_call" kind,
        per_call calls (kind_sum kind Layers.self_words),
        "words" );
      (Printf.sprintf "nf.%s.host_share" kind, share ns, "ratio");
    ]
  in
  let inject_calls = int_of_float (sum (fun tr -> float_of_int tr.inject.calls)) in
  List.concat_map nf nf_kinds
  @ [
      ( "system.inject.ns_per_pkt",
        per_call inject_calls (sum (fun tr -> Layers.self_ns tr.inject)),
        "ns" );
      ( "system.inject.words_per_pkt",
        per_call inject_calls (sum (fun tr -> Layers.self_words tr.inject)),
        "words" );
      ("system.self_share", share (host_net -. sum Layers.traced_ns), "ratio");
      ("pktgen.ns_per_pkt", pktgen_ns, "ns");
      ("pktgen.words_per_pkt", pktgen_words, "words");
      ("trace.untraced_sim_pps", pps, "pkt/s");
      ("trace.traced_sim_pps", tpps, "pkt/s");
      ("trace.overhead_frac", (pps /. tpps) -. 1.0, "ratio");
    ]

(* The layer replays, on one sub-run's inputs. *)
let replay_layers ~seed (w : Workload.t) graphs inputs (clf : Layers.classifier_replay) =
  let copies = Layers.copies inputs in
  let engine_ns, engine_words = Layers.engine ~seed:(Workload.sub seed 7) ~events:200_000 in
  let plans = List.map (fun (g : Workload.graph) -> g.plan) graphs in
  [
    ("classifier.hit_ns", clf.hit_ns, "ns");
    ("classifier.miss_ns", clf.miss_ns, "ns");
    ("classifier.words_per_lookup", clf.words_per_lookup, "words");
    ("copy.header_ns", copies.header_ns, "ns");
    ("copy.header_words", copies.header_words, "words");
    ("copy.full_ns", copies.full_ns, "ns");
    ("merge.op_ns", Layers.merge_op_ns plans inputs, "ns");
    ( "ring.burst_ns_per_pkt",
      Layers.ring_burst_ns ~capacity:w.config.ring_capacity ~batch:w.config.batch_size inputs,
      "ns" );
    ("engine.ns_per_event", engine_ns, "ns");
    ("engine.words_per_event", engine_words, "words");
    ("channel.send_ns", Layers.channel_send_ns w graphs inputs, "ns");
  ]

(* The public counters of a checked run. *)
let modeled_layers first ~fail_ratio =
  let h = first.result.health and c = first.counters in
  let l = h.links in
  core_roles first.result.duration_ns first.cores
  @ [
      ("classifier.hit_ratio", Layers.per (c.hits + c.misses) c.hits, "ratio");
      ("classifier.evictions", float_of_int c.evictions, "count");
    ]
  @ List.map (fun (b, n) -> ("drops." ^ b, float_of_int n, "count")) (drop_buckets h.drops)
  @ List.map
      (fun (m, n) -> (m, float_of_int n, "count"))
      [
        ("link.retransmits", l.retransmits);
        ("link.link_drops", l.link_drops);
        ("link.duplicates_suppressed", l.duplicates_suppressed);
        ("link.reroutes", l.reroutes);
        ("recovery.checkpoints", h.checkpoints);
        ("recovery.replayed", h.replayed);
        ("recovery.restarts", h.restarts);
        ("elastic.scale_outs", h.scale_outs);
        ("elastic.migrations", h.migrations);
        ("elastic.migration_aborts", h.migration_aborts);
      ]
  @ [ ("fail_ratio", fail_ratio, "ratio") ]

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* One sub-run: its own inputs, reference and share of the timed window.
   Sub-run 0 also takes the knee (untraced) or the layer replays
   (traced), which need its inputs. *)
type part = {
  first : sim;  (** the checked run *)
  plain : sim list;  (** every untraced run, the first included *)
  traced : (sim * Layers.tracer) list;
  pktgen_ns : int;
  pktgen_words : int;
  failed : int;
  checked : bool;  (** check, determinism, traced equality, classifier replay *)
  knee : float;
  replays : (string * float * string) list;
  peak_heap_mb : float;
}

let part ~add_note ~phase ~trace ~seconds ~lead (w : Workload.t) ~seed =
  let note fmt = Printf.ksprintf add_note fmt in
  let graphs = w.compile () in
  (* Inputs: generated before any timed window (the pktgen layer). *)
  let w0 = Clock.minor_words () and t = Clock.now_ns () in
  let inputs = Array.init w.packets w.generate in
  let pktgen_ns = Clock.now_ns () - t and pktgen_words = Clock.minor_words () - w0 in
  phase "generate" t;
  let t = Clock.now_ns () in
  let rules = Array.of_list (List.map (fun (g : Workload.graph) -> g.rule) graphs) in
  let clf = Layers.classifier rules inputs in
  let expected = reference graphs inputs clf.mids in
  phase "reference" t;
  (* The timed window: whole simulated runs until [seconds] elapse, and
     at least two, so that the determinism check compares something; a
     traced run alternates untraced and traced simulations. *)
  let t = Clock.now_ns () in
  let deadline = t + int_of_float (seconds *. 1e9) in
  let first = simulate ~expected w graphs inputs in
  (* The heap high-water mark through set-up, inputs and the first
     simulated run: deterministic for a seed, unlike the mark after a
     host-speed-dependent number of runs. *)
  let peak_heap_mb = heap_mb () in
  let plain = ref [ first ] and traced = ref [] in
  while Clock.now_ns () < deadline || List.length !plain < 2 || (trace && !traced = []) do
    if trace && List.length !traced < List.length !plain then begin
      let tr = Layers.tracer () in
      traced := (simulate ~tracer:tr w graphs inputs, tr) :: !traced
    end
    else plain := simulate w graphs inputs :: !plain
  done;
  phase "window" t;
  let t = Clock.now_ns () in
  let knee = if lead && not trace then knee_mpps w graphs inputs else nan in
  if lead && not trace then phase "knee" t;
  let replays = if lead && trace then replay_layers ~seed w graphs inputs clf else [] in
  let r = first.result and chk = Option.get first.check in
  let deterministic = List.for_all (same_model first) !plain in
  let traced_equal = List.for_all (fun (s, _) -> same_model first s) !traced in
  let replay_equal =
    clf.hits = first.counters.hits && clf.misses = first.counters.misses
    && clf.evictions = first.counters.evictions
  in
  let failed = r.offered - r.completed + chk.mismatched + chk.duplicates in
  note "seed %d: model_digest %s" seed first.digest;
  note
    "seed %d check: offered %d completed %d mismatched %d duplicates %d unmatched %d ledger %s \
     deterministic %b traced_equal %b classifier_replay_equal %b"
    seed r.offered r.completed chk.mismatched chk.duplicates r.unmatched
    (if chk.ledger_ok then "balanced" else "UNBALANCED")
    deterministic traced_equal replay_equal;
  {
    first;
    plain = !plain;
    traced = !traced;
    pktgen_ns;
    pktgen_words;
    failed;
    checked =
      r.unmatched = 0 && chk.ledger_ok && deterministic && traced_equal && replay_equal;
    knee;
    replays;
    peak_heap_mb;
  }

let run ?packets ~name ~seed ~seconds ~trace () =
  let subruns = Workload.subruns name in
  let workload k =
    let seed = (seed * subruns) + k in
    (seed, Workload.make ?packets ~seed name)
  in
  let notes = ref [] in
  let add_note s = notes := s :: !notes in
  let note fmt = Printf.ksprintf add_note fmt in
  let phase label t0 =
    note "phase %s %.3f s, heap high-water %.0f MB" label (Clock.seconds_since t0) (heap_mb ())
  in
  let t = Clock.now_ns () in
  let setup_s =
    if trace then nan
    else setup_seconds ~budget:(Float.min 1.5 (seconds /. 10.0)) (snd (workload 0))
  in
  phase "setup" t;
  let parts =
    List.init subruns (fun k ->
        let seed, w = workload k in
        part ~add_note ~phase ~trace ~lead:(k = 0) w ~seed
          ~seconds:(seconds /. float_of_int subruns))
  in
  let lead = List.hd parts in
  let sum f = List.fold_left (fun n p -> n + f p) 0 parts in
  let plain = List.concat_map (fun p -> p.plain) parts in
  let traced = List.concat_map (fun p -> p.traced) parts in
  let attempted = sum (fun p -> p.first.result.offered) in
  let failed = sum (fun p -> p.failed) in
  let correct = failed = 0 && List.for_all (fun p -> p.checked) parts in
  let fail_ratio = float_of_int failed /. float_of_int attempted in
  let digest =
    match parts with
    | [ p ] -> p.first.digest
    | _ ->
        Digest.to_hex (Digest.string (String.concat "" (List.map (fun p -> p.first.digest) parts)))
  in
  let pps = per_run sim_pps plain in
  (* Modeled metrics over the sub-runs' checked runs taken together. *)
  let latency =
    List.fold_left
      (fun acc p -> Nfp_algo.Stats.merge acc p.first.result.latency)
      (Nfp_algo.Stats.create ()) parts
  in
  let last_delivery_ns = List.fold_left (fun t p -> t +. p.first.last_delivery_ns) 0.0 parts in
  note "runs: %d untraced, %d traced, over %d seed(s); latency samples %d" (List.length plain)
    (List.length traced) subruns
    (Nfp_algo.Stats.count latency);
  note "host: unnormalized sim_pps %.0f pkt/s, slowdown %.3f against the reference (medians)"
    (per_run raw_pps plain) (per_run (fun s -> s.slowdown) plain);
  note "model_digest %s" digest;
  note "fail_ratio %.6f ratio" fail_ratio;
  let end_to_end, per_layer =
    if trace then begin
      let r = lead.first.result in
      List.iter
        (fun (c : Sys_.core_stats) ->
          note "core %-22s util %.4f stalled %.4f processed %d rejected %d" (sanitize c.core)
            (c.busy_ns /. r.duration_ns) (c.stalled_ns /. r.duration_ns) c.processed c.rejected)
        lead.first.cores;
      let generated = sum (fun p -> p.first.result.offered) in
      let pktgen =
        ( Layers.per generated (sum (fun p -> p.pktgen_ns)),
          Layers.per generated (sum (fun p -> p.pktgen_words)) )
      in
      ( [],
        span_layers ~pktgen ~pps traced @ lead.replays @ modeled_layers lead.first ~fail_ratio )
    end
    else
      ( [
          ("sim_pps", pps, "pkt/s");
          ( "words_per_pkt",
            per_run (fun s -> Layers.per s.result.offered s.words) plain,
            "words" );
          ("peak_heap_mb", lead.peak_heap_mb, "MB");
          ("setup_s", setup_s, "s");
          ("model_knee_mpps", lead.knee, "Mpps");
          (* Per simulated microsecond up to the last delivery: timers
             that outlive the traffic (watchdog, probes, a late crash)
             do not count. *)
          ( "model_goodput_mpps",
            float_of_int (sum (fun p -> p.first.result.completed)) /. last_delivery_ns *. 1000.0,
            "Mpps" );
          ("model_p50_us", Nfp_algo.Stats.percentile latency 50.0 /. 1000.0, "us");
          ("model_p99_us", Nfp_algo.Stats.percentile latency 99.0 /. 1000.0, "us");
        ],
        [] )
  in
  { correct; attempted; failed; end_to_end; per_layer; digest; notes = List.rev !notes }

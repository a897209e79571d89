(* Per-layer host measurement, from outside the program.

   In situ: the traced run wraps the public functions it hands to the
   system — each NF instance's [process] and [cost_cycles] (and those of
   the replicas its [fresh] factory builds) and the system's [inject] —
   in spans that accumulate self time (a span's duration minus its child
   spans) and minor words, less the measured cost of an empty span.
   Host time in no span, net of the tracing's cost, is the system's own:
   Engine, Server, Ring, copies, merges, Channel and the ledger.

   Replay: each remaining layer's public functions are driven directly
   with the workload's own inputs — its packet stream, rule table,
   merge ops, batch size and link plan. *)

module Packet = Nfp_packet.Packet
module Nf = Nfp_nf.Nf

type acc = {
  mutable ns : int;
  mutable words : int;
  mutable calls : int;
  mutable spans : int;  (** calls plus the uncounted spans charged to the same call *)
}

let acc () = { ns = 0; words = 0; calls = 0; spans = 0 }

(* Time and words of the spans completed inside the current one. *)
let child_ns = ref 0
let child_words = ref 0

(* A top-level function rather than a closure inside [span], so that a
   span allocates nothing. *)
let close a ~count ~t0 ~w0 ~saved_ns ~saved_words =
  let dt = Clock.now_ns () - t0 in
  let dw = Clock.minor_words () - w0 in
  a.ns <- a.ns + dt - !child_ns;
  a.words <- a.words + dw - !child_words;
  a.spans <- a.spans + 1;
  if count then a.calls <- a.calls + 1;
  child_ns := saved_ns + dt;
  child_words := saved_words + dw

let span a ~count f x =
  let saved_ns = !child_ns and saved_words = !child_words in
  child_ns := 0;
  child_words := 0;
  let w0 = Clock.minor_words () in
  let t0 = Clock.now_ns () in
  match f x with
  | r ->
      close a ~count ~t0 ~w0 ~saved_ns ~saved_words;
      r
  | exception e ->
      close a ~count ~t0 ~w0 ~saved_ns ~saved_words;
      raise e

(* What tracing itself costs per span, measured on an empty body: [charged_*]
   is what such a span adds to its own accumulator (clock and counter
   reads inside the measured interval), [total_ns] its whole host time.
   The minimum over several trials is the floor. *)
type span_cost = { charged_ns : float; charged_words : float; total_ns : float }

let span_cost =
  lazy
    (let n = 20_000 in
     let trial () =
       let a = acc () in
       let t0 = Clock.now_ns () in
       for i = 1 to n do
         ignore (Sys.opaque_identity (span a ~count:true Sys.opaque_identity i))
       done;
       let spanned = Clock.now_ns () - t0 in
       let t0 = Clock.now_ns () in
       for i = 1 to n do
         ignore (Sys.opaque_identity (Sys.opaque_identity i))
       done;
       let bare = Clock.now_ns () - t0 in
       (float_of_int a.ns /. float_of_int n, float_of_int a.words /. float_of_int n,
        float_of_int (spanned - bare) /. float_of_int n)
     in
     let trials = List.init 7 (fun _ -> trial ()) in
     let floor f = List.fold_left (fun m t -> Float.min m (f t)) infinity trials in
     {
       charged_ns = floor (fun (ns, _, _) -> ns);
       charged_words = floor (fun (_, w, _) -> w);
       total_ns = Float.max 0.0 (floor (fun (_, _, t) -> t));
     })

(* An accumulator's self time and words with the tracing cost taken out. *)
let self_ns a =
  let c = Lazy.force span_cost in
  float_of_int a.ns -. (float_of_int a.spans *. c.charged_ns)

let self_words a =
  let c = Lazy.force span_cost in
  float_of_int a.words -. (float_of_int a.spans *. c.charged_words)

type tracer = {
  by_kind : (string, acc) Hashtbl.t;  (** NF bodies, per NF type *)
  inject : acc;  (** [Harness.system.inject]: classifier front end, admission, first offer *)
}

let tracer () = { by_kind = Hashtbl.create 8; inject = acc () }

let kind_acc tr kind =
  match Hashtbl.find_opt tr.by_kind kind with
  | Some a -> a
  | None ->
      let a = acc () in
      Hashtbl.replace tr.by_kind kind a;
      a

(* One call = one packet through the NF body; its cost-model evaluation
   is charged to the same call. *)
let rec wrap_nf tr (nf : Nf.t) =
  let a = kind_acc tr nf.kind in
  {
    nf with
    process = (fun p -> span a ~count:true nf.process p);
    cost_cycles = (fun p -> span a ~count:false nf.cost_cycles p);
    fresh = Option.map (fun fresh () -> wrap_nf tr (fresh ())) nf.fresh;
    degrade =
      Option.map
        (fun (d : Nf.degrade) ->
          {
            d with
            d_process = (fun p -> span a ~count:true d.d_process p);
            d_cost_cycles = (fun p -> span a ~count:false d.d_cost_cycles p);
          })
        nf.degrade;
  }

let wrap_system tr (s : Nfp_sim.Harness.system) =
  { s with inject = (fun ~pid p -> span tr.inject ~count:true (s.inject ~pid) p) }

let fold tr f = Hashtbl.fold (fun _ a n -> n +. f a) tr.by_kind (f tr.inject)

(* Self time in spans, and the whole host cost of the tracing, of one
   traced run. *)
let traced_ns tr = fold tr self_ns
let tracing_ns tr = fold tr (fun a -> float_of_int a.spans) *. (Lazy.force span_cost).total_ns

(* ------------------------------------------------------------------ *)
(* Replays                                                             *)
(* ------------------------------------------------------------------ *)

let per n x = if n = 0 then 0.0 else float_of_int x /. float_of_int n
let clock_floor () = Lazy.force Clock.overhead_ns

type classifier_replay = {
  mids : int array;  (** resolved MID per offered packet, 0 = no match *)
  hits : int;
  misses : int;
  evictions : int;
  hit_ns : float;
  miss_ns : float;
  words_per_lookup : float;
}

(* [Classifier.classify_packet] over the offered stream in offered
   order, against the deployment's rule table and cache size — the
   system's front end does exactly these lookups, so the counters must
   come out equal to the in-run ones. *)
let classifier rules (inputs : Packet.t array) =
  let c = Nfp_packet.Classifier.create rules in
  let n = Array.length inputs in
  let mids = Array.make n 0 in
  let floor = clock_floor () in
  let hit_ns = ref 0 and miss_ns = ref 0 and hits = ref 0 in
  let w0 = Clock.minor_words () in
  for i = 0 to n - 1 do
    let t0 = Clock.now_ns () in
    let mid = Nfp_packet.Classifier.classify_packet c inputs.(i) in
    let dt = Clock.now_ns () - t0 - floor in
    mids.(i) <- mid;
    if Nfp_packet.Classifier.last_probes c < 0 then begin
      incr hits;
      hit_ns := !hit_ns + dt
    end
    else miss_ns := !miss_ns + dt
  done;
  let words = Clock.minor_words () - w0 in
  {
    mids;
    hits = Nfp_packet.Classifier.cache_hits c;
    misses = Nfp_packet.Classifier.cache_misses c;
    evictions = Nfp_packet.Classifier.cache_evictions c;
    hit_ns = per !hits !hit_ns;
    miss_ns = per (n - !hits) !miss_ns;
    words_per_lookup = per n words;
  }

(* Replays below run over at most this many of the workload's packets. *)
let sample_size = 20_000
let sample (inputs : Packet.t array) = Array.sub inputs 0 (min sample_size (Array.length inputs))

(* Passes of the shorter replays over their sample. *)
let rounds = 3

(* Time [f] over every element of [xs], [rounds] times, as ns and minor
   words per element. *)
let per_element xs f =
  let n = Array.length xs * rounds in
  let w0 = Clock.minor_words () in
  let t0 = Clock.now_ns () in
  for _ = 1 to rounds do
    Array.iter f xs
  done;
  let dt = Clock.now_ns () - t0 in
  (per n dt, per n (Clock.minor_words () - w0))

type copy_replay = { header_ns : float; header_words : float; full_ns : float }

let copies inputs =
  let xs = sample inputs in
  let header_ns, header_words =
    per_element xs (fun p -> ignore (Sys.opaque_identity (Packet.header_only_copy p ~version:2)))
  in
  let full_ns, _ = per_element xs (fun p -> ignore (Sys.opaque_identity (Packet.full_copy p))) in
  { header_ns; header_words; full_ns }

(* [Merge_op.apply] with the plan's merge ops, each packet's version 2
   being its header-only copy (the copy the dataplane makes). *)
let merge_op_ns (plans : Nfp_core.Tables.plan list) inputs =
  match List.concat_map (fun (p : Nfp_core.Tables.plan) -> p.merges) plans with
  | [] -> 0.0
  | spec :: _ ->
      let ops = Array.of_list spec.ops in
      if ops = [||] then 0.0
      else begin
        let stores =
          Array.map
            (fun p ->
              let v1 = Packet.full_copy p in
              let v2 = Packet.header_only_copy p ~version:2 in
              fun v -> if v = 1 then Some v1 else if v = 2 then Some v2 else None)
            (sample inputs)
        in
        let t0 = Clock.now_ns () in
        Array.iter (fun get -> Array.iter (fun op -> Nfp_core.Merge_op.apply op ~get) ops) stores;
        per (Array.length stores * Array.length ops) (Clock.now_ns () - t0)
      end

(* [Ring.enqueue_burst] then [dequeue_into] at the deployment's batch
   size and ring capacity. *)
let ring_burst_ns ~capacity ~batch inputs =
  let xs = sample inputs in
  let batch = max 1 (min batch capacity) in
  let r = Nfp_algo.Ring.create ~capacity in
  let dst = Array.make batch xs.(0) in
  let bursts = Array.length xs / batch in
  let t0 = Clock.now_ns () in
  for _ = 1 to rounds do
    for b = 0 to bursts - 1 do
      let k = Nfp_algo.Ring.enqueue_burst r xs (b * batch) batch in
      ignore (Nfp_algo.Ring.dequeue_into r dst 0 k)
    done
  done;
  per (rounds * bursts * batch) (Clock.now_ns () - t0)

(* [Engine.schedule] plus [run]: rounds of [depth] events at seeded
   pseudo-random delays, drained by one [run] each. *)
let engine ~seed ~events =
  let e = Nfp_sim.Engine.create () in
  let prng = Nfp_algo.Prng.create ~seed in
  let depth = 256 in
  let delays = Array.init depth (fun _ -> Nfp_algo.Prng.float prng *. 1000.0) in
  let fired = ref 0 in
  let callback () = incr fired in
  let rounds = max 1 (events / depth) in
  let w0 = Clock.minor_words () in
  let t0 = Clock.now_ns () in
  for _ = 1 to rounds do
    for k = 0 to depth - 1 do
      Nfp_sim.Engine.schedule e ~delay:delays.(k) callback
    done;
    Nfp_sim.Engine.run e
  done;
  let dt = Clock.now_ns () - t0 in
  let dw = Clock.minor_words () - w0 in
  (per !fired dt, per !fired dw)

(* [Channel.send] on one link of the workload's link plan, with the
   deployment's reliability settings; the engine runs between sends so
   acks, retransmits and probes fire as they would in situ. Only the
   sends are timed. *)
let channel_send_ns (w : Workload.t) (graphs : Workload.graph list) inputs =
  match (w.links, graphs) with
  | None, _ | _, [] -> 0.0
  | Some lc, g :: _ -> (
      (* the ingress port of the graph's last NF *)
      let link = "mid1:" ^ List.hd (List.rev g.plan.serial_order) in
      match Nfp_sim.Fault.link_for lc.link_plan link with
      | None -> 0.0
      | Some state ->
          let cost = w.config.cost in
          let reliability =
            if not lc.reliable then None
            else
              Some
                {
                  Nfp_infra.Channel.window = max 1 lc.link_window;
                  ack_interval_ns = lc.ack_interval_ns;
                  rto_ns = lc.rto_ns;
                  rto_backoff = lc.rto_backoff;
                  rto_max_ns = lc.rto_max_ns;
                  retransmit_budget = lc.retransmit_budget;
                  reorder_window = max 1 lc.reorder_window;
                  probe_interval_ns = lc.probe_interval_ns;
                  probe_timeout_k = lc.probe_timeout_k;
                  ack_ns = Nfp_sim.Cost.ns_of_cycles cost cost.ack_cycles;
                  retransmit_ns = Nfp_sim.Cost.ns_of_cycles cost cost.retransmit_cycles;
                }
          in
          let engine = Nfp_sim.Engine.create () in
          let ch =
            Nfp_infra.Channel.create ~engine ~name:("link:" ^ link) ~state ?reliability
              ~deliver:(fun _ -> true)
              ~reroute:ignore ~stats:(Nfp_infra.Channel.fresh_stats ()) ()
          in
          let xs = sample inputs in
          let floor = clock_floor () in
          let ns = ref 0 in
          Array.iter
            (fun p ->
              let t0 = Clock.now_ns () in
              ignore (Nfp_infra.Channel.send ch p);
              ns := !ns + (Clock.now_ns () - t0 - floor);
              (* one packet per microsecond, the base offered rate *)
              Nfp_sim.Engine.run ~until:(Nfp_sim.Engine.now engine +. 1000.0) engine)
            xs;
          Nfp_sim.Engine.run engine;
          per (Array.length xs) !ns)

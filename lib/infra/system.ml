open Nfp_packet
open Nfp_core

let log_src = Logs.Src.create "nfp.system" ~doc:"NFP dataplane"

module Log = (val Logs.src_log log_src)

include Config

(* Bounded (pid, version) memory with generational pruning: two
   hash tables, [g_cur] receiving inserts and [g_prev] holding the
   previous generation; membership consults both. When [g_cur] reaches
   half the capacity the generations rotate and the oldest half is
   dropped, so the table never holds more than [capacity] entries yet
   any entry survives at least [capacity / 2] subsequent insertions —
   the dedup window a late retransmission or replayed branch must fit
   inside (satellite: previously these tables grew without bound). *)
module Dedup = struct
  type 'k t = {
    half : int;
    mutable g_cur : ('k, unit) Hashtbl.t;
    mutable g_prev : ('k, unit) Hashtbl.t;
  }

  let create capacity =
    let half = max 1 (capacity / 2) in
    { half; g_cur = Hashtbl.create 64; g_prev = Hashtbl.create 64 }

  let mem t key = Hashtbl.mem t.g_cur key || Hashtbl.mem t.g_prev key

  let add t key =
    if not (mem t key) then begin
      if Hashtbl.length t.g_cur >= t.half then begin
        let retired = t.g_prev in
        Hashtbl.reset retired;
        t.g_prev <- t.g_cur;
        t.g_cur <- retired
      end;
      Hashtbl.replace t.g_cur key ()
    end

  let length t = Hashtbl.length t.g_cur + Hashtbl.length t.g_prev
end

type core_stats = {
  core : string;
  busy_ns : float;
  stalled_ns : float;
  processed : int;
  rejected : int;
  queue : int;
}

let stats_of_server (type a) (s : a Nfp_sim.Server.t) =
  {
    core = Nfp_sim.Server.name s;
    busy_ns = Nfp_sim.Server.busy_ns s;
    stalled_ns = Nfp_sim.Server.stalled_ns s;
    processed = Nfp_sim.Server.processed s;
    rejected = Nfp_sim.Server.rejected s;
    queue = Nfp_sim.Server.queue_length s;
  }

(* What the replication analysis decided for one NF of the deployment,
   plus per-replica observables: the differential suite checks the
   merged digest against an unreplicated run's, and the ledger tests
   check the per-replica processed counts. *)
type replica_report = {
  rr_mid : int;
  rr_nf : string;
  rr_kind : string;
  rr_strategy : Replication.strategy;
  rr_replicas : int;
  rr_processed : int list;  (* per replica, in shard order *)
  rr_merged_digest : int;
      (* replicas = 1: the instance digest. Shared_nothing: all replica
         snapshots merged, restored into a fresh scratch instance, and
         digested — equal to a sequential run's digest when the merge
         is faithful. Replicated_readonly: replica 0's digest (all
         replicas are identical by construction). *)
}

(* Shared no-op completion thunk: the common "nothing left to emit"
   result costs no allocation. *)
let const_true () = true

(* ------------------------------------------------------------------ *)
(* The plan is translated once, at deployment time, into a            *)
(* preresolved runtime program — merge specs in arrays indexed by      *)
(* merge id, NF and merger targets resolved to direct server slots,    *)
(* static cycle costs folded into one constant (only the per-byte      *)
(* full-copy term stays dynamic), and emissions as arrays walked by a  *)
(* cursor instead of per-packet closure lists.                         *)
(* ------------------------------------------------------------------ *)

type ccopy = { c_src : int; c_dst : int; c_full : bool }

type csend =
  | S_nf of int  (* slot in the dense NF-server array *)
  | S_merge of { merge : cmerge; branch : int; nil : bool }
  | S_deliver of int  (* packet version to emit *)

and cprog = {
  p_copies : ccopy array;
  p_sends : csend array;
  p_static : int;  (* constant cycles of the action list *)
  p_full_srcs : int array;  (* src versions of full copies (dynamic per-byte term) *)
}

and cmerge = {
  m_mid : int;
  m_id : int;
  m_spec : Tables.merge_spec;  (* compile-time only: branch resolution *)
  m_expected : int;
  m_versions : int array;  (* per-branch packet version *)
  m_result_version : int;
  m_ops : Merge_op.t array;
  m_drop_any : bool;
  m_winner : int;  (* branch index for `Priority_to; -1 when unresolved *)
  mutable m_next : cprog;
  mutable m_nil_sends : csend array;  (* upward nil propagation, precompiled *)
  mutable m_completion_static : int;  (* |ops|*merge_op + m_next.p_static *)
}

type cdelivery = { d_ctx : Context.t; d_merge : cmerge; d_branch : int; d_nil : bool }

type cat_entry = {
  mutable c_received : int;
  mutable c_nil_mask : int;
  mutable c_arrived_mask : int;  (* branches seen, for merger-timeout completion *)
}

(* A compiled merger's accumulations, keyed by (MID, merge id, PID) with
   typed equality and hash: the generic [Hashtbl] would send each branch
   arrival through the polymorphic [caml_hash] and [compare_val]. *)
module Accumulations = Hashtbl.Make (struct
  type t = int * int * int64

  let equal (m1, i1, p1) (m2, i2, p2) = m1 = m2 && i1 = i2 && Int64.equal p1 p2

  let hash (mid, id, pid) =
    Nfp_algo.Hashing.combine (Nfp_algo.Hashing.combine mid id) (Int64.to_int pid)
end)

(* First branch of [spec] the deliverer satisfies (its own branch, or
   the branch whose members include it) — resolved once at compile
   time. *)
let branch_index (spec : Tables.merge_spec) (deliverer : Tables.deliverer) =
  let rec go i = function
    | [] -> -1
    | (e : Tables.expect) :: rest ->
        if
          e.deliverer = deliverer
          || match deliverer with Tables.D_nf n -> List.mem n e.members | _ -> false
        then i
        else go (i + 1) rest
  in
  go 0 spec.expected

let empty_prog = { p_copies = [||]; p_sends = [||]; p_static = 0; p_full_srcs = [||] }

(* The admission controller's shed ladder moves at most one class per
   [pressure_poll_ns], and a class being shed still admits one packet in
   every [shed_trickle]. *)
let pressure_poll_ns = 2_000.0
let shed_trickle = 16

let make_multi ?(classify = `Cached) ?(config = default_config)
    ?fault ?overload ?elastic ?links ?stats ?replication ~graphs engine ~output =
  (* A links config with an empty plan and no reliability layer is
     normalized away entirely — nothing to perturb, nothing to arm, so
     the send sites keep their direct call path (bit-identity). *)
  let links =
    match links with
    | Some (lc : links_config)
      when Nfp_sim.Fault.links_empty lc.link_plan && not lc.reliable ->
        None
    | other -> other
  in
  (* Every misconfiguration at once: one Invalid_argument naming each
     violated rule, joined with "; ". *)
  let any o violated = Option.fold ~none:false ~some:violated o in
  (match
     List.filter_map
       (fun (violated, msg) -> if violated then Some msg else None)
       [
         (graphs = [], "no service graphs");
         ( any fault (fun f -> f.watchdog_interval_ns <= 0.0),
           "fault watchdog_interval_ns must be positive" );
         (any fault (fun f -> f.restart_ns < 0.0), "fault restart_ns must be >= 0");
         ( any overload (fun o ->
               not
                 (0 <= o.low_watermark
                 && o.low_watermark < o.high_watermark
                 && o.high_watermark <= config.ring_capacity)),
           "overload watermarks must satisfy 0 <= low < high <= ring_capacity" );
         ( any elastic (fun e -> e.min_replicas < 1 || e.max_replicas < e.min_replicas),
           "elastic replica bounds must satisfy 1 <= min <= max" );
         (any elastic (fun e -> e.buckets < e.max_replicas), "elastic buckets must be >= max_replicas");
         ( any elastic (fun e ->
               e.control_interval_ns <= 0.0 || e.transfer_ns < 0.0
               || e.migration_deadline_ns <= 0.0
               || e.commit_retry_ns <= 0.0 || e.cooldown_ns < 0.0),
           "elastic periods must be positive" );
         ( any elastic (fun e -> not (e.scale_in_occupancy < e.scale_out_occupancy)),
           "elastic occupancy thresholds must satisfy in < out" );
         (any elastic (fun e -> e.migration_batch < 1), "elastic migration_batch must be >= 1");
         (any links (fun l -> l.link_window < 1), "links link_window must be >= 1");
         (any links (fun l -> l.reorder_window < 1), "links reorder_window must be >= 1");
         (any links (fun l -> l.retransmit_budget < 1), "links retransmit_budget must be >= 1");
         ( any links (fun l ->
               l.ack_interval_ns <= 0.0 || l.rto_ns <= 0.0 || l.rto_max_ns <= 0.0
               || l.probe_interval_ns < 0.0),
           "links periods must be positive" );
         (any links (fun l -> l.rto_backoff < 1.0), "links rto_backoff must be >= 1.0");
         (any links (fun l -> l.probe_timeout_k < 1), "links probe_timeout_k must be >= 1");
       ]
   with
  | [] -> ()
  | msgs -> invalid_arg ("System.make_multi: " ^ String.concat "; " msgs));
  (* Watermarks for every ring; [None] (no overload config) leaves
     each ring's latch disarmed — the bit-identity guarantee. *)
  let wm = Option.map (fun o -> (o.high_watermark, o.low_watermark)) overload in
  let degrade_on = any overload (fun o -> o.degrade_enabled) in
  (* Replica target for strategy-eligible NFs; 1 (the default) keeps
     the deployment bit-identical to the pre-replication system. *)
  let replicas_knob = max 1 config.replicas in
  let cost = config.cost in
  (* Breath size for every core's poll loop; 1 restores per-packet
     (legacy) execution exactly. *)
  let batch = max 1 config.batch_size in
  let burst_saving_ns = Nfp_sim.Cost.ns_of_cycles cost cost.burst_saving in
  (* Faults are resolved per core by name; [None] everywhere when no
     fault config is given, and [Server.create ?fault:None] is exactly
     the pre-fault server. *)
  let fault_for name =
    match fault with
    | None -> None
    | Some (fc : fault_config) -> Nfp_sim.Fault.for_core fc.plan name
  in
  let merge_timeout_ns = match fault with Some fc -> fc.merge_timeout_ns | None -> 0.0 in
  (* MIDs are 1-based positions in the classification table. *)
  let table = Array.of_list graphs in
  let recovery = Recovery.create fault engine ~cost ~graphs:(Array.length table) in
  (* The (pid, version) dedup filters arm with a fault plan (a replay
     can re-emit), under elastic (a crash landing mid-migration can
     re-home a packet whose original emission is still in flight), and
     under links (a retransmitted branch racing its own timeout-completed
     merge, or a fabric duplicate on a raw channel). Pure bookkeeping —
     on a duplicate-free run the filters never fire, so the trace is
     untouched. *)
  let dedup_on = Recovery.armed recovery || elastic <> None || links <> None in
  let deduped = ref 0 in
  let plan_of_mid mid : Tables.plan =
    let _, p, _ = table.(mid - 1) in
    p
  in
  (* Shard only NFs the profile analysis clears within their graph:
     {!Replication.shardable} additionally vetoes any NF with an
     order-sensitive (Sequential-strategy) NF downstream, since
     sharding changes the cross-flow arrival order those cores see. *)
  let shardable mid name =
    let _, plan, nfs = table.(mid - 1) in
    Replication.shardable ~plan ~nf_of:nfs name
  in
  let replica_count mid name =
    if replicas_knob > 1 && shardable mid name then replicas_knob else 1
  in
  (* Resolve every plan's NF implementations up front. *)
  let nf_impls =
    List.concat
      (List.mapi
         (fun i (_, (plan : Tables.plan), nfs) ->
           List.map
             (fun (e : Tables.nf_entry) ->
               match nfs e.nf with
               | nf -> (i + 1, e, nf)
               | exception _ ->
                   invalid_arg (Printf.sprintf "System.make: no NF named %S" e.nf))
             plan.nf_entries)
         graphs)
  in
  let ring_drops = ref 0 and nf_drops = ref 0 and unmatched = ref 0 in
  (* Overload counters, shared by the admission controller (built after
     the cores) and the per-NF degrade switches (inside the replica
     closures below). *)
  let shed_total = ref 0
  and degraded_packets = ref 0
  and degrade_switches = ref 0 in
  (* Highest admission class any hosted chain declares: the shed ladder
     never climbs past it, so the top class is never shed (anti-
     starvation holds even before the trickle). *)
  let max_class =
    Array.fold_left
      (fun acc (_, (p : Tables.plan), _) -> max acc (max 0 p.Tables.priority))
      0 table
  in
  let shed_class = Array.make (max_class + 1) 0 in
  let prng = Nfp_algo.Prng.create ~seed:config.seed in
  let jitter_for () = (config.jitter, Nfp_algo.Prng.split prng) in
  (* Standby replicas (indices past the static count) draw jitter from
     an independent stream, like the degrade twins: building them must
     not shift the main PRNG and perturb a never-scaling trace. *)
  let elastic_prng =
    Nfp_algo.Prng.create ~seed:(Int64.logxor config.seed 0x31a5_71c5L)
  in
  let elastic_jitter_for () = (config.jitter, Nfp_algo.Prng.split elastic_prng) in
  let packet_bytes ctx version =
    match Context.get ctx version with Some p -> Packet.wire_length p | None -> 1500
  in
  let wire_delay = cost.wire_ns /. 2.0 in
  (* Output-side dedup backstop (armed runs only): a replayed or
     timeout-completed branch must never deliver the same (pid, version)
     twice. Twin chains tag their deliveries version 1, the parallel
     graph its (1-based) plan version. *)
  let dedup_capacity =
    match fault with Some fc -> max 2 fc.dedup_capacity | None -> 65_536
  in
  let delivered_versions : (int64 * int) Dedup.t = Dedup.create dedup_capacity in
  let merger_dedups : (int * int * int64) Dedup.t list ref = ref [] in
  let dedup_entries () =
    Dedup.length delivered_versions
    + List.fold_left (fun acc d -> acc + Dedup.length d) 0 !merger_dedups
  in
  let deliver_out ~version ~pid pkt =
    if dedup_on && Dedup.mem delivered_versions (pid, version) then incr deduped
    else begin
      if dedup_on then Dedup.add delivered_versions (pid, version);
      Nfp_sim.Engine.schedule engine ~delay:wire_delay (fun () -> output ~pid pkt)
    end
  in
  (* Link channels: one per destination port, shared by every edge into
     that core. [channel_for] returns [None] when links are off — the
     caller keeps its direct offer path, compiled away from the trace.
     All channels share one stats record (the run ledger's link
     taxonomy) and draw fault state from the link plan by name. *)
  let link_stats = Channel.fresh_stats () in
  let link_reliability =
    match links with
    | Some (lc : links_config) when lc.reliable ->
        Some
          {
            Channel.window = max 1 lc.link_window;
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
    | _ -> None
  in
  let channel_for ~name ~deliver ~reroute =
    match links with
    | None -> None
    | Some (lc : links_config) -> (
        (* Only ports the plan actually perturbs get a channel: an
           unmatched port keeps the direct call path, so arming links
           with a plan that names nothing behaves like no links at
           all, and the ARQ machinery never taxes healthy ports. *)
        match Nfp_sim.Fault.link_for lc.link_plan name with
        | None -> None
        | Some state ->
            Some
              (Channel.create ~engine ~name:("link:" ^ name) ~state
                 ?reliability:link_reliability ~deliver ~reroute ~stats:link_stats
                 ()))
  in
  (* The egress edge (merger/NF -> delivery port). The reroute of a Down
     delivery link is delivery itself — the detour models the alternate
     path to the egress NIC, and the exactly-once filter upstream keeps
     it safe. *)
  let delivery_channel =
    channel_for ~name:"delivery"
      ~deliver:(fun (v, pid, pkt) ->
        deliver_out ~version:v ~pid pkt;
        true)
      ~reroute:(fun (v, pid, pkt) -> deliver_out ~version:v ~pid pkt)
  in
  let slot_of_pid pid instances =
    Int64.to_int
      (Int64.rem
         (Int64.logand (Nfp_algo.Hashing.mix64 pid) Int64.max_int)
         (Int64.of_int (max 1 instances)))
  in
  (* Per-NF replica layout, filled in as the cores are built: (mid,
     entry, replica NF instances, replica cores).
     The [?replication] report reads it. *)
  let replica_layout :
      (int * Tables.nf_entry * Nfp_nf.Nf.t array * Context.t Nfp_sim.Server.t array) list ref =
    ref []
  in
  let bypassed_packets = ref 0 and merge_timeouts = ref 0 in
  (* Run a retryable emission to completion off-core: used where no
     server owns the emission (bypass reroutes, timed-out merges), with
     the same stall-poll cadence as a core's flush loop. *)
  let drive = Channel.drive engine in
  (* A channel in front of [srv]'s port: releases offer into its ring,
     and a Down link detours into it off-core. *)
  let channel_to name srv =
    channel_for ~name
      ~deliver:(fun job -> Nfp_sim.Server.offer srv job)
      ~reroute:(fun job -> drive (fun () -> Nfp_sim.Server.offer srv job))
  in
  (* Every core is built here and registered with the watchdog.
     Registration order is creation order: it fixes the watchdog's
     scan order and the [health.cores] listing. *)
  let core :
      'a.
      ?role:'a Recovery.role ->
      name:string ->
      jitter:float * Nfp_algo.Prng.t ->
      service_ns:('a -> float) ->
      execute:('a -> unit -> bool) ->
      unit ->
      'a Nfp_sim.Server.t =
   fun ?(role = Recovery.Infra) ~name ~jitter ~service_ns ~execute () ->
    let server =
      Nfp_sim.Server.create ~engine ~name ~ring_capacity:config.ring_capacity ~batch
        ~burst_saving_ns ~jitter ?watermarks:wm ?fault:(fault_for name) ~service_ns
        ~execute ()
    in
    Recovery.register recovery server role;
    server
  in
  let classifier, sampler, controller =
    (* One slot per NF, in nf_impls order: its replica cores (index
       0 is the historical single instance, further indices are RSS
       shards or elastic standbys), their NF instances, recovery
       cells, bypass flags and link channels, and its steering. *)
    let slots : Elastic.slot array ref = ref [||] in
    let merger_cores : cdelivery Nfp_sim.Server.t array ref = ref [||] in
    let agent_core : cdelivery Nfp_sim.Server.t option ref = ref None in
    (* Channels into the merger ports ("merger#i", "merger-agent");
       built with the merger cores below. A Down merger link detours
       straight into the destination ring off-core — the merge
       accumulation cannot be skipped, only the fabric can. *)
    let merger_channels : cdelivery Channel.t option array ref = ref [||] in
    let agent_channel : cdelivery Channel.t option ref = ref None in
    let offer_merger i (d : cdelivery) =
      Channel.offer !merger_channels.(i) !merger_cores.(i) d
    in
    let route_merge (d : cdelivery) =
      match !agent_core with
      | Some agent -> Channel.offer !agent_channel agent d
      | None ->
          offer_merger
            (slot_of_pid (Context.pid d.d_ctx) (Array.length !merger_cores))
            d
    in
    (* NF slots: dense indices in nf_impls order. *)
    let slot_of : (int * string, int) Hashtbl.t = Hashtbl.create 16 in
    List.iteri
      (fun i (mid, (e : Tables.nf_entry), _) -> Hashtbl.replace slot_of (mid, e.nf) i)
      nf_impls;
    (* Merge specs per plan, in arrays indexed by merge id. *)
    let cmerge_table =
      Array.mapi
        (fun i (_, (plan : Tables.plan), _) ->
          let mid = i + 1 in
          let max_id =
            List.fold_left (fun a (m : Tables.merge_spec) -> max a m.id) (-1) plan.merges
          in
          let arr = Array.make (max_id + 1) None in
          List.iter
            (fun (spec : Tables.merge_spec) ->
              let drop_any, winner =
                match spec.drop_policy with
                | `Any -> (true, -1)
                | `Priority_to w ->
                    let b = branch_index spec w in
                    (b < 0, b)
              in
              arr.(spec.id) <-
                Some
                  {
                    m_mid = mid;
                    m_id = spec.id;
                    m_spec = spec;
                    m_expected = List.length spec.expected;
                    m_versions =
                      Array.of_list
                        (List.map (fun (e : Tables.expect) -> e.version) spec.expected);
                    m_result_version = spec.result_version;
                    m_ops = Array.of_list spec.ops;
                    m_drop_any = drop_any;
                    m_winner = winner;
                    m_next = empty_prog;
                    m_nil_sends = [||];
                    m_completion_static = 0;
                  })
            plan.merges;
          arr)
        table
    in
    let lookup_merge mid id =
      let arr = cmerge_table.(mid - 1) in
      if id < 0 || id >= Array.length arr then
        invalid_arg "System: delivery references unknown merge point"
      else
        match arr.(id) with
        | Some m -> m
        | None -> invalid_arg "System: delivery references unknown merge point"
    in
    let compile_actions ~mid ~(self : Tables.deliverer) actions =
      let copies = ref [] and sends = ref [] in
      let static = ref 0 and full_srcs = ref [] in
      List.iter
        (function
          | Tables.Copy { src_version; dst_version; full } ->
              copies := { c_src = src_version; c_dst = dst_version; c_full = full } :: !copies;
              if full then begin
                static := !static + cost.copy_base;
                full_srcs := src_version :: !full_srcs
              end
              else static := !static + cost.header_copy
          | Tables.Distribute { version; targets } ->
              static := !static + (cost.ring_enqueue * List.length targets);
              List.iter
                (fun target ->
                  let s =
                    match target with
                    | Tables.To_nf n -> (
                        match Hashtbl.find_opt slot_of (mid, n) with
                        | Some i -> S_nf i
                        | None ->
                            invalid_arg
                              (Printf.sprintf "System: FT references unknown NF %S" n))
                    | Tables.To_merger id ->
                        let m = lookup_merge mid id in
                        S_merge
                          { merge = m; branch = branch_index m.m_spec self; nil = false }
                    | Tables.Deliver -> S_deliver version
                  in
                  sends := s :: !sends)
                targets)
        actions;
      {
        p_copies = Array.of_list (List.rev !copies);
        p_sends = Array.of_list (List.rev !sends);
        p_static = !static;
        p_full_srcs = Array.of_list (List.rev !full_srcs);
      }
    in
    (* Second pass: merge continuations (may reference sibling or
       enclosing merges, which all exist now). *)
    Array.iteri
      (fun i arr ->
        let mid = i + 1 in
        Array.iter
          (function
            | None -> ()
            | Some m ->
                let spec = m.m_spec in
                m.m_next <- compile_actions ~mid ~self:(Tables.D_merger m.m_id) spec.next;
                m.m_completion_static <-
                  (Array.length m.m_ops * cost.merge_op) + m.m_next.p_static;
                m.m_nil_sends <-
                  Array.of_list
                    (List.concat_map
                       (function
                         | Tables.Distribute { version = _; targets } ->
                             List.filter_map
                               (function
                                 | Tables.To_merger outer ->
                                     let om = lookup_merge mid outer in
                                     Some
                                       (S_merge
                                          {
                                            merge = om;
                                            branch =
                                              branch_index om.m_spec
                                                (Tables.D_merger m.m_id);
                                            nil = true;
                                          })
                                 | Tables.To_nf _ | Tables.Deliver -> None)
                               targets
                         | Tables.Copy _ -> [])
                       spec.next))
          arr)
      cmerge_table;
    (* The one NF-slot router, behind every send site and every NF
       link channel ([Elastic.route] picks the replica). [via] is
       the replica whose link channel is releasing [ctx], or -1 at a
       send site: a released packet enters the ring directly. A
       bypassed replica is out of the graph: the slot's action
       program runs immediately instead, and [drive] absorbs that
       emission's backpressure. *)
    let rec send_nf slot ~via ctx =
      let s = !slots.(slot) in
      let r = Elastic.route s ~via ctx in
      if s.bypassed.(r) then begin
        incr bypassed_packets;
        s.skip ctx;
        true
      end
      else Channel.offer (if via < 0 then s.ports.(r) else None) s.replicas.(r) ctx
    and send ctx = function
      | S_nf slot -> send_nf slot ~via:(-1) ctx
      | S_merge { merge; branch; nil } ->
          route_merge { d_ctx = ctx; d_merge = merge; d_branch = branch; d_nil = nil }
      | S_deliver v -> (
          match Context.get ctx v with
          | None -> true
          | Some pkt -> (
              match delivery_channel with
              | Some ch -> Channel.send ch (v, Context.pid ctx, pkt)
              | None ->
                  deliver_out ~version:v ~pid:(Context.pid ctx) pkt;
                  true))
    (* Walk a compiled send array with a cursor; the cursor survives
       backpressure retries, so each target is offered in order
       exactly once. A single send needs no cursor: a retry offers
       the same target again. *)
    and exec_sends sends ctx =
      match sends with
      | [||] -> const_true
      | [| only |] -> fun () -> send ctx only
      | _ ->
          let n = Array.length sends in
          let cursor = ref 0 in
          fun () ->
            let rec go i =
              if i >= n then true
              else if send ctx sends.(i) then go (i + 1)
              else begin
                cursor := i;
                false
              end
            in
            go !cursor
    and exec_prog prog ctx =
      let copies = prog.p_copies in
      for i = 0 to Array.length copies - 1 do
        let c = copies.(i) in
        ignore (Context.copy ctx ~src:c.c_src ~dst:c.c_dst ~full:c.c_full)
      done;
      exec_sends prog.p_sends ctx
    in
    let dyn_cycles prog ctx =
      let srcs = prog.p_full_srcs in
      let n = Array.length srcs in
      if n = 0 then 0
      else begin
        let acc = ref 0 in
        for i = 0 to n - 1 do
          acc :=
            !acc
            + int_of_float
                (cost.copy_per_byte *. float_of_int (packet_bytes ctx srcs.(i)))
        done;
        !acc
      end
    in
    (* NF slots, in nf_impls order, replica 0 first. Replica 0 is the
       caller's NF instance; further replicas are fresh instances from
       [Nf.fresh], each with its own state, recovery cell, fault stream
       and watchdog entry. *)
    slots :=
      Array.of_list
        (List.mapi
           (fun slot (mid, (entry : Tables.nf_entry), (nf0 : Nfp_nf.Nf.t)) ->
             let prog = compile_actions ~mid ~self:(Tables.D_nf entry.nf) entry.actions in
             let nil_sends =
               match entry.nil_target with
               | None -> [||]
               | Some id ->
                   let m = lookup_merge mid id in
                   [|
                     S_merge
                       {
                         merge = m;
                         branch = branch_index m.m_spec (Tables.D_nf entry.nf);
                         nil = true;
                       };
                   |]
             in
             let base = replica_count mid entry.nf in
             let steer =
               Elastic.steer elastic ~shardable:(fun () -> shardable mid entry.nf) ~base nf0
             in
             let width = Elastic.width steer ~base in
             let bypassed = Array.make width false in
             let skip ctx = drive (exec_prog prog ctx) in
             let make_replica r (nf : Nfp_nf.Nf.t) jitter =
               let cell = Recovery.cell recovery nf in
               let static =
                 cost.ring_dequeue + cost.nf_runtime + prog.p_static + Recovery.log_cycles cell
               in
               (* Pressure-degrade switch: while this replica's own
                  ring sits above the watermark, an NF that declares
                  a degrade mode runs its coarsened semantics at its
                  coarsened cost. The predicate reads the server
                  created below (through a cell, to break the
                  creation cycle); within one breath the ring
                  occupancy is constant, so pricing and execution
                  always agree per breath. Without an overload config
                  (or without a declared mode) [deg] is [None] and
                  this entire path is dead code. *)
               let deg = if degrade_on then nf.Nfp_nf.Nf.degrade else None in
               let self_pressured = ref (fun () -> false) in
               let deg_active = ref false in
               let service_ns ctx =
                 let nf_cycles =
                   match Context.get ctx entry.version with
                   | Some pkt -> (
                       match deg with
                       | Some d when !self_pressured () -> d.Nfp_nf.Nf.d_cost_cycles pkt
                       | _ -> nf.cost_cycles pkt)
                   | None -> 0
                 in
                 Nfp_sim.Cost.ns_of_cycles cost (static + nf_cycles + dyn_cycles prog ctx)
               in
               let execute ctx =
                 match Context.get ctx entry.version with
                 | None -> const_true
                 | Some pkt -> (
                     Recovery.log cell pkt;
                     let degrade_mode =
                       match deg with
                       | None -> None
                       | Some d ->
                           let p = !self_pressured () in
                           if p <> !deg_active then begin
                             deg_active := p;
                             if p then incr degrade_switches
                           end;
                           if p then Some d else None
                     in
                     let verdict =
                       try
                         match degrade_mode with
                         | Some d ->
                             incr degraded_packets;
                             d.Nfp_nf.Nf.d_process pkt
                         | None -> nf.process pkt
                       with exn ->
                         Log.warn (fun m ->
                             m "NF %s crashed on packet %Ld: %s" entry.nf (Context.pid ctx)
                               (Printexc.to_string exn));
                         Nfp_nf.Nf.Dropped
                     in
                     match verdict with
                     | Nfp_nf.Nf.Forward -> exec_prog prog ctx
                     | Nfp_nf.Nf.Dropped ->
                         if Array.length nil_sends > 0 then exec_sends nil_sends ctx
                         else begin
                           incr nf_drops;
                           const_true
                         end)
               in
               (* Replica 0 keeps the historical core name; shards get
                  an @r suffix, so fault plans can target (and crash)
                  each replica independently. *)
               let name =
                 if r = 0 then Printf.sprintf "mid%d:%s" mid entry.nf
                 else Printf.sprintf "mid%d:%s@%d" mid entry.nf r
               in
               (* Bypass recovery: mark the replica, reroute this
                  core's casualties (the in-flight batch its kill
                  reclaimed, and any pending emissions) plus the
                  queued backlog through its action program, so
                  every packet lands in exactly one ledger bucket and
                  no merger waits on this branch. Other replicas of
                  the slot keep processing. *)
               let bypass ctx =
                 incr bypassed_packets;
                 skip ctx
               in
               let drain server =
                 bypassed.(r) <- true;
                 Nfp_sim.Server.set_casualty_sink server (fun jobs emits ->
                     List.iter bypass jobs;
                     List.iter drive emits);
                 let backlog = Nfp_sim.Server.drain server in
                 List.iter bypass backlog;
                 List.length backlog
               in
               let standby () = Elastic.standby steer r in
               let server =
                 core
                   ~role:(Recovery.Nf { mid; name = entry.nf; drain; cell; standby })
                   ~name ~jitter ~service_ns ~execute ()
               in
               self_pressured := (fun () -> Nfp_sim.Server.pressured server);
               (server, cell)
             in
             let nfs =
               Array.init width (fun r ->
                   if r = 0 then nf0
                   else
                     match nf0.Nfp_nf.Nf.fresh with
                     | Some fresh -> fresh ()
                     | None -> assert false (* replica_count guarantees fresh *))
             in
             (* Build replicas in index order ([Array.init] applies
                in order): each creation splits the jitter PRNG, and
                the replicas=1 trace must keep the historical split
                sequence. Standby replicas (index >= the static
                count) split the independent elastic stream instead,
                leaving the main sequence untouched. *)
             let replicas, cells =
               Array.split
                 (Array.init width (fun r ->
                      let jitter = if r < base then jitter_for () else elastic_jitter_for () in
                      make_replica r nfs.(r) jitter))
             in
             replica_layout := (mid, entry, nfs, replicas) :: !replica_layout;
             {
               Elastic.version = entry.version;
               replicas;
               nfs;
               cells;
               bypassed;
               skip;
               (* Releases go back through the slot router, so a
                  packet buffered on the link while a migration flips
                  its bucket, or while the watchdog bypasses the
                  replica, lands where it would be routed *now*. The
                  reroute of a Down link runs the slot's action
                  program off-core, bypass-style. *)
               ports =
                 Array.mapi
                   (fun r srv ->
                     channel_for ~name:(Nfp_sim.Server.name srv) ~deliver:(send_nf slot ~via:r)
                       ~reroute:skip)
                   replicas;
               (* Migration transfers get their own link family:
                  moved in-flight packets cross the fabric like any
                  other edge, so a plan can perturb the re-home path
                  independently of the data path. *)
               migrate =
                 (if Option.is_none steer then [||]
                  else
                    Array.map
                      (fun srv -> channel_to ("migrate:" ^ Nfp_sim.Server.name srv) srv)
                      replicas);
               steer;
             })
           nf_impls);
    let controller =
      Elastic.create elastic engine ~fault ~ring_capacity:config.ring_capacity
        ~busy:(fun () -> Recovery.busy recovery)
        !slots
    in
    (* Merge completion, shared by the full-arrival path and the
       timeout path. [nil_mask] decides the drop policy; [skip_mask]
       marks branches whose versions must not feed the merge ops —
       nil branches (half-processed) and, on a timeout, branches
       that never arrived. With [skip_mask = nil_mask] this is
       exactly the pre-timeout completion. *)
    let complete m ctx ~nil_mask ~skip_mask =
      let dropped =
        if m.m_drop_any then nil_mask <> 0 else nil_mask land (1 lsl m.m_winner) <> 0
      in
      if dropped then
        if Array.length m.m_nil_sends = 0 then begin
          incr nf_drops;
          const_true
        end
        else exec_sends m.m_nil_sends ctx
      else begin
        (if skip_mask = 0 then
           let get v = Context.get ctx v in
           Array.iter (fun op -> Merge_op.apply op ~get) m.m_ops
         else begin
           (* Versions from branches that dropped under a priority
              policy are half-processed; their ops are skipped. *)
           let skip_versions = ref [] in
           Array.iteri
             (fun b v ->
               if skip_mask land (1 lsl b) <> 0 then
                 skip_versions := v :: !skip_versions)
             m.m_versions;
           let svs = !skip_versions in
           let get v =
             if List.mem v svs && v <> m.m_result_version then None
             else Context.get ctx v
           in
           Array.iter (fun op -> Merge_op.apply op ~get) m.m_ops
         end);
        exec_prog m.m_next ctx
      end
    in
    let make_merger index =
      let at : cat_entry Accumulations.t = Accumulations.create 1024 in
      (* Completed-merge memory (armed runs only): a branch arriving
         after its merge already completed — a straggler emitted by
         a salvaged core after a merge timeout force-completed the
         accumulation, or a late retransmission of a branch a
         timeout already nil-substituted — is consumed silently
         instead of opening a fresh accumulation that would deliver
         a duplicate. Mergers never see the same (MID, merge, PID)
         complete twice within the bounded dedup window. *)
      let done_tbl : (int * int * int64) Dedup.t = Dedup.create dedup_capacity in
      merger_dedups := done_tbl :: !merger_dedups;
      let service_ns (d : cdelivery) =
        let m = d.d_merge in
        Nfp_sim.Cost.ns_of_cycles cost
          (cost.ring_dequeue + cost.merge_delivery
          + ((m.m_completion_static + dyn_cycles m.m_next d.d_ctx) / Int.max 1 m.m_expected)
          )
      in
      let execute (d : cdelivery) =
        let m = d.d_merge in
        let key = (m.m_mid, m.m_id, Context.pid d.d_ctx) in
        if dedup_on && Dedup.mem done_tbl key then begin
          incr deduped;
          const_true
        end
        else begin
          let entry =
            match Accumulations.find_opt at key with
            | Some e -> e
            | None ->
                let e = { c_received = 0; c_nil_mask = 0; c_arrived_mask = 0 } in
                Accumulations.replace at key e;
                (* Arm the straggler timeout when this accumulation
                   opens: if a failed branch never shows up, merge
                   what did arrive rather than wedge the packet (the
                   drop policy still applies to arrived nils). *)
                if merge_timeout_ns > 0.0 then
                  Nfp_sim.Engine.schedule engine ~delay:merge_timeout_ns (fun () ->
                      match Accumulations.find_opt at key with
                      | Some e' when e' == e ->
                          Accumulations.remove at key;
                          if dedup_on then Dedup.add done_tbl key;
                          incr merge_timeouts;
                          let missing =
                            ((1 lsl m.m_expected) - 1) land lnot e.c_arrived_mask
                          in
                          drive
                            (complete m d.d_ctx ~nil_mask:e.c_nil_mask
                               ~skip_mask:(e.c_nil_mask lor missing))
                      | _ -> ());
                e
          in
          entry.c_received <- entry.c_received + 1;
          if d.d_branch >= 0 then
            entry.c_arrived_mask <- entry.c_arrived_mask lor (1 lsl d.d_branch);
          if d.d_nil && d.d_branch >= 0 then
            entry.c_nil_mask <- entry.c_nil_mask lor (1 lsl d.d_branch);
          if entry.c_received < m.m_expected then const_true
          else begin
            Accumulations.remove at key;
            if dedup_on then Dedup.add done_tbl key;
            complete m d.d_ctx ~nil_mask:entry.c_nil_mask ~skip_mask:entry.c_nil_mask
          end
        end
      in
      core
        ~name:(Printf.sprintf "merger#%d" index)
        ~jitter:(jitter_for ()) ~service_ns ~execute ()
    in
    merger_cores := Array.init (max 1 config.mergers) make_merger;
    merger_channels :=
      Array.map (fun srv -> channel_to (Nfp_sim.Server.name srv) srv) !merger_cores;
    if config.mergers > 1 then begin
      let instances = !merger_cores in
      let service_ns _ =
        Nfp_sim.Cost.ns_of_cycles cost
          (cost.ring_dequeue + cost.merger_agent + cost.ring_enqueue)
      in
      let execute (d : cdelivery) =
        let i = slot_of_pid (Context.pid d.d_ctx) (Array.length instances) in
        fun () -> offer_merger i d
      in
      let agent =
        core ~name:"merger-agent" ~jitter:(jitter_for ()) ~service_ns ~execute ()
      in
      agent_channel := channel_to "merger-agent" agent;
      agent_core := Some agent
    end;
    let classifier_progs =
      Array.init (Array.length table) (fun i ->
          compile_actions ~mid:(i + 1) ~self:(Tables.D_nf "classifier")
            (plan_of_mid (i + 1)).classifier_actions)
    in
    let classifier =
      let service_ns (ctx : Context.t) =
        let prog = classifier_progs.(Context.mid ctx - 1) in
        Nfp_sim.Cost.ns_of_cycles cost
          (cost.classifier + prog.p_static + dyn_cycles prog ctx)
      in
      let execute ctx = exec_prog classifier_progs.(Context.mid ctx - 1) ctx in
      core ~name:"classifier" ~jitter:(jitter_for ()) ~service_ns ~execute ()
    in
    let sampler () =
      stats_of_server classifier
      :: (Array.to_list
            (Array.concat (List.map (fun (s : Elastic.slot) -> s.replicas) (Array.to_list !slots)))
         |> List.map stats_of_server
         |> List.sort (fun a b -> compare a.core b.core))
      @ Array.to_list (Array.map stats_of_server !merger_cores)
      @ (match !agent_core with Some a -> [ stats_of_server a ] | None -> [])
    in
    (classifier, sampler, controller)
  in
  (* Classifier front end: CT match, metadata tagging, first-hop actions.
     Unmatched packets are discarded (no service graph owns them) and
     counted separately from NF drops. [`Cached] resolves the flow
     through the two-level classifier (microflow cache over the
     tuple-space matcher); [`Scan] is the linear first-match reference.
     Both charge their structural cycles (zero under the default cost
     model) as added delay ahead of the classifier core. *)
  let ct = Array.map (fun (m, _, _) -> m) table in
  let clf = Nfp_packet.Classifier.create ct in
  (* [classify_pkt] resolves the MID (0 = no rule matches) and leaves
     the structural cycle charge in [classify_cycles] (an int ref, so
     storing it never allocates). The [`Cached] arm reads the 5-tuple
     straight from packet bytes and is allocation-free on a microflow
     hit; [`Scan] is the reference path and keeps its boxed forms. *)
  let classify_cycles = ref 0 in
  let classify_pkt pkt =
    match classify with
    | `Cached ->
        let mid = Nfp_packet.Classifier.classify_packet clf pkt in
        let probed = Nfp_packet.Classifier.last_probes clf in
        classify_cycles :=
          (if probed < 0 then cost.classify_hit
           else cost.classify_hit + (cost.classify_group * probed));
        mid
    | `Scan -> (
        let result, examined = Nfp_packet.Classifier.scan ct (Packet.flow pkt) in
        classify_cycles := cost.classify_rule * examined;
        match result with Some m -> m | None -> 0)
  in
  (match stats with None -> () | Some cell -> cell := sampler);
  (* Replication report: strategy, replica fan-out and per-replica
     processed counts for every NF, plus the merged state digest. Call
     it after a run drains — the digest reads live NF state. *)
  let replication_report () =
    List.rev_map
      (fun (mid, (entry : Tables.nf_entry), nfs_arr, servers) ->
        let nf0 : Nfp_nf.Nf.t = nfs_arr.(0) in
        let merged_digest =
          if Array.length nfs_arr = 1 then nf0.state_digest ()
          else
            match (nf0.merge, nf0.fresh) with
            | Some merge, Some fresh ->
                let snaps =
                  Array.to_list
                    (Array.map
                       (fun (nf : Nfp_nf.Nf.t) ->
                         match nf.snapshot with
                         | Some snap -> snap ()
                         | None -> assert false (* eligibility requires it *))
                       nfs_arr)
                in
                let scratch = fresh () in
                (match scratch.restore with
                | Some restore -> restore (merge snaps)
                | None -> assert false);
                scratch.state_digest ()
            | _ ->
                (* Replicated_readonly: replicas never diverge. *)
                nf0.state_digest ()
        in
        {
          rr_mid = mid;
          rr_nf = entry.nf;
          rr_kind = nf0.kind;
          rr_strategy = Replication.derive nf0;
          rr_replicas = Array.length nfs_arr;
          rr_processed = Array.to_list (Array.map Nfp_sim.Server.processed servers);
          rr_merged_digest = merged_digest;
        })
      !replica_layout
  in
  (match replication with None -> () | Some cell -> cell := replication_report);
  (* ---------------------------------------------------------------- *)
  (* Degrade fallback: one sequential twin chain per service graph,   *)
  (* built from the plan's provably-equivalent serial order. While a  *)
  (* graph is degraded, new packets run the chain instead of the      *)
  (* parallel deployment. Twin cores draw jitter from a PRNG stream   *)
  (* independent of the main one, so building them does not perturb   *)
  (* the fault-free trace (the differential test holds this).         *)
  (* ---------------------------------------------------------------- *)
  let twin_heads =
    match fault with
    | None -> [||]
    | Some _ ->
        let twin_prng =
          Nfp_algo.Prng.create ~seed:(Int64.logxor config.seed 0x5eed_f417L)
        in
        Array.init (Array.length table) (fun i ->
            let mid = i + 1 in
            let plan = plan_of_mid mid in
            let chain =
              List.filter_map
                (fun name ->
                  List.find_map
                    (fun (m, (e : Tables.nf_entry), nf) ->
                      if m = mid && e.nf = name then Some (name, (nf : Nfp_nf.Nf.t))
                      else None)
                    nf_impls)
                plan.serial_order
            in
            let rec build = function
              | [] -> None
              | (name, (nf : Nfp_nf.Nf.t)) :: rest ->
                  let next = build rest in
                  let service_ns ((_, pkt) : int64 * Packet.t) =
                    Nfp_sim.Cost.ns_of_cycles cost
                      (cost.ring_dequeue + cost.nf_runtime + nf.cost_cycles pkt
                     + cost.ring_enqueue)
                  in
                  let execute ((pid, pkt) as job) =
                    let verdict =
                      try nf.process pkt
                      with exn ->
                        Log.warn (fun m ->
                            m "NF %s (sequential fallback) crashed on packet %Ld: %s"
                              name pid (Printexc.to_string exn));
                        Nfp_nf.Nf.Dropped
                    in
                    match verdict with
                    | Nfp_nf.Nf.Forward -> (
                        match next with
                        | Some next -> fun () -> Nfp_sim.Server.offer next job
                        | None ->
                            deliver_out ~version:1 ~pid pkt;
                            const_true)
                    | Nfp_nf.Nf.Dropped ->
                        incr nf_drops;
                        const_true
                  in
                  Some
                    (core
                       ~name:(Printf.sprintf "seq:mid%d:%s" mid name)
                       ~jitter:(config.jitter, Nfp_algo.Prng.split twin_prng)
                       ~service_ns ~execute ())
            in
            build chain)
  in
  (* ---------------------------------------------------------------- *)
  (* Admission controller (overload config only). An escalating shed   *)
  (* level L with per-poll hysteresis: while any core's watermark      *)
  (* latch is raised, L climbs one class per poll interval (capped at  *)
  (* the deployment's highest class, which is therefore never shed);   *)
  (* when pressure clears, L relaxes one class per poll. A classified  *)
  (* packet whose chain's admission class is below L is refused at the *)
  (* NIC boundary — except a deterministic 1-in-[shed_trickle] trickle *)
  (* per class, so no class ever starves outright.                     *)
  (* ---------------------------------------------------------------- *)
  let shed_level = ref 0 in
  let last_poll = ref neg_infinity in
  let trickle_seen = Array.make (max_class + 1) 0 in
  let shed_packet =
    match overload with
    | None -> fun _ -> false
    | Some _ ->
        fun mid ->
          let now = Nfp_sim.Engine.now engine in
          if now -. !last_poll >= pressure_poll_ns then begin
            last_poll := now;
            if Recovery.pressured recovery then begin
              if !shed_level < max_class then incr shed_level
            end
            else if !shed_level > 0 then decr shed_level
          end;
          let cls = Int.max 0 (Int.min max_class (plan_of_mid mid).Tables.priority) in
          if cls >= !shed_level then false
          else begin
            trickle_seen.(cls) <- trickle_seen.(cls) + 1;
            if trickle_seen.(cls) mod shed_trickle = 0 then false
            else begin
              incr shed_total;
              shed_class.(cls) <- shed_class.(cls) + 1;
              true
            end
          end
  in
  let health () =
    Elastic.report controller
      (Recovery.report recovery
         {
           Nfp_sim.Harness.no_health with
           bypassed_packets = !bypassed_packets;
           deduped = !deduped;
           drops =
             {
               Nfp_sim.Harness.no_drops with
               ingress_rejected = !ring_drops;
               nf_dropped = !nf_drops;
               no_match = !unmatched;
               merge_timed_out = !merge_timeouts;
               shed = !shed_total;
               shed_by_class =
                 (match overload with
                 | None -> []
                 | Some _ -> Array.to_list (Array.mapi (fun c n -> (c, n)) shed_class));
               degraded = !degraded_packets;
             };
           degrade_switches = !degrade_switches;
           links =
             {
               Nfp_sim.Harness.link_drops = link_stats.Channel.link_drops;
               retransmits = link_stats.Channel.retransmits;
               duplicates_suppressed = link_stats.Channel.duplicates_suppressed;
               reordered = link_stats.Channel.reordered;
               partitions = link_stats.Channel.partitions;
               reroutes = link_stats.Channel.reroutes;
             };
           dedup_entries = (if dedup_on then dedup_entries () else 0);
         })
  in
  {
    Nfp_sim.Harness.inject =
      (fun ~pid pkt ->
        Recovery.kick recovery;
        Elastic.kick controller;
        let mid = classify_pkt pkt in
        Nfp_sim.Engine.schedule engine
          ~delay:(wire_delay +. Nfp_sim.Cost.ns_of_cycles cost !classify_cycles)
          (fun () ->
            if mid = 0 then incr unmatched
            else if shed_packet mid then
              (* Refused by the admission controller: counted (total and
                 per class) and gone — deliberately, before it can cost
                 a ring slot or a core cycle. *)
              ()
            else if Recovery.degraded recovery mid then (
              (* Sequential fallback: tag the packet as the
                 classifier would and run the twin chain. *)
              Packet.stamp pkt ~mid ~pid ~version:1;
              match twin_heads.(mid - 1) with
              | Some head ->
                  if not (Nfp_sim.Server.offer head (pid, pkt)) then
                    incr ring_drops
              | None -> deliver_out ~version:1 ~pid pkt)
            else
              let ctx = Context.create ~pid ~mid pkt in
              if not (Nfp_sim.Server.offer classifier ctx) then incr ring_drops));
    classifier =
      (fun () ->
        {
          Nfp_sim.Harness.hits = Nfp_packet.Classifier.cache_hits clf;
          misses = Nfp_packet.Classifier.cache_misses clf;
          evictions = Nfp_packet.Classifier.cache_evictions clf;
        });
    health;
  }

let make ?classify ?config ?fault ?overload ?elastic ?links ?stats ?replication ~plan
    ~nfs engine ~output =
  make_multi ?classify ?config ?fault ?overload ?elastic ?links ?stats ?replication
    ~graphs:[ (Flow_match.any, plan, nfs) ]
    engine ~output

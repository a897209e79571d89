open Nfp_packet
module Server = Nfp_sim.Server
module Engine = Nfp_sim.Engine

(* One in-flight bucket migration. Phase 1 (freeze) pauses the source
   replica and schedules the commit [transfer_ns] later; phase 2
   (commit) either aborts — rolling back to the old map with the source
   unfrozen and nothing observable changed — or atomically re-homes the
   buckets. *)
type migration = {
  mg_src : int;
  mg_dst : int;
  mg_buckets : int list;
  mg_deadline : float;
}

(* [map.(b)] is the replica owning bucket [b]; the send sites read it per
   attempt, so a single-event flip can never race an in-flight packet. *)
type steer = {
  width : int;
  map : int array;
  mutable active : int;  (* replicas 0 .. active-1 receive traffic *)
  mutable draining : int;  (* replica being scaled in; -1 = none *)
  mutable last_op : float;  (* cooldown clock *)
  mutable backoff : float;
      (* no migration may start before this time: set after an abort so
         the just-unfrozen source drains its backlog before the
         controller can freeze it again (otherwise a hopeless migration —
         e.g. a moved set larger than the destination ring — restarts
         every tick and the source starves forever) *)
  mutable mig : migration option;  (* at most one in flight per slot *)
}

type slot = {
  version : int;
  replicas : Context.t Server.t array;
  nfs : Nfp_nf.Nf.t array;
  cells : Recovery.cell array;
  bypassed : bool array;
  skip : Context.t -> unit;
  ports : Context.t Channel.t option array;
  migrate : Context.t Channel.t option array;
  steer : steer option;
}

(* RSS bucket of a 5-tuple among [n]. The hash runs on its own seeded
   stream ([Hashing.rss2_int]), never correlated with the microflow
   cache's bucket hash. Steering hashes a packet's fields and the
   migration carve a [Flow.t]'s: the same values, so every packet of a
   flow lands in the bucket its state moves with. *)
let rss_bucket ~sip ~sport ~proto ~dip ~dport n =
  Nfp_algo.Hashing.rss2_int
    (Nfp_algo.Hashing.pack_a_int sip sport proto)
    (Nfp_algo.Hashing.pack_b_int dip dport)
  mod n

(* The bucket of the 5-tuple the slot's NF will observe. Upstream
   rewrites (NAT, LB) are flow-deterministic, so every packet of a flow
   hashes alike. *)
let bucket s ctx n =
  match Context.get ctx s.version with
  | None -> 0
  | Some pkt ->
      rss_bucket ~sip:(Packet.sip_int pkt) ~sport:(Packet.sport pkt) ~proto:(Packet.proto pkt)
        ~dip:(Packet.dip_int pkt) ~dport:(Packet.dport pkt) n

(* [sip_int]/[dip_int] are the unsigned ints of the 32-bit addresses, so
   the extract predicate's bucket agrees with the steering bucket of
   every packet of the flow. *)
let flow_bucket (f : Flow.t) n =
  rss_bucket
    ~sip:(Int32.to_int f.sip land 0xffffffff)
    ~sport:f.sport ~proto:f.proto
    ~dip:(Int32.to_int f.dip land 0xffffffff)
    ~dport:f.dport n

(* The hash is skipped entirely for single-replica slots, keeping the
   replicas=1 hot path (and trace) bit-identical to the pre-replication
   system. *)
let route s ~via ctx =
  let n = Array.length s.replicas in
  if n < 2 then 0
  else
    match s.steer with
    | Some st -> st.map.(bucket s ctx (Array.length st.map))
    | None -> if via >= 0 then via else bucket s ctx n

let steer cfg ~shardable ~base nf =
  match cfg with
  | Some (ec : Config.elastic_config)
    when ec.max_replicas > 1 && Nfp_core.Replication.migratable nf && shardable () ->
      let width = max base ec.max_replicas in
      (* The identity map ([b mod active]) reproduces static sharding
         over the initially-active replicas. *)
      let init = min width (max base ec.min_replicas) in
      Some
        {
          width;
          map = Array.init ec.buckets (fun b -> b mod init);
          active = init;
          draining = -1;
          backoff = 0.0;
          last_op = neg_infinity;
          mig = None;
        }
  | _ -> None

let width steer ~base = match steer with Some st -> st.width | None -> base
let standby steer r = match steer with Some st -> r >= st.active | None -> false

(* ------------------------------------------------------------------ *)
(* Controller. Ticks every [control_interval_ns] while the system has  *)
(* work (kicked from inject, stops when idle, like the watchdog); per  *)
(* scalable slot it retires drained replicas, rebalances bucket        *)
(* ownership, and makes cooldown-gated scale decisions from ring       *)
(* occupancy. At most one migration is in flight per slot; its commit *)
(* is an independently scheduled event, so a down controller never     *)
(* wedges a frozen source — the commit fires and aborts.               *)
(* ------------------------------------------------------------------ *)

type controller = {
  ec : Config.elastic_config;
  engine : Engine.t;
  ring_capacity : int;
  busy : unit -> bool;
  slots : slot array;
  mutable down : bool;  (* the controller itself crashed or hung *)
  mutable ticking : bool;
  mutable scale_outs : int;
  mutable scale_ins : int;
  mutable migrations : int;
  mutable migration_aborts : int;
  mutable migrated_packets : int;
}

type t = Off | On of controller

let off = Off

let owned st r = Array.fold_left (fun acc o -> if o = r then acc + 1 else acc) 0 st.map

(* A replica behind a link the channels declared Down is unreachable,
   dead or not: the controller must not activate it, rebalance onto it,
   or migrate toward it until the partition heals. *)
let link_ok s r = match s.ports.(r) with Some ch -> not (Channel.is_down ch) | None -> true
let alive s r = (not (Server.is_down s.replicas.(r))) && link_ok s r

let occ c s r =
  float_of_int (Server.queue_length s.replicas.(r)) /. float_of_int (max 1 c.ring_capacity)

(* Highest-numbered owned buckets first: deterministic, and a draining
   replica hands its range back in the order scale-out granted it. *)
let pick_buckets st ~src ~count =
  let picked = ref [] and n = ref 0 in
  for b = Array.length st.map - 1 downto 0 do
    if !n < count && st.map.(b) = src then begin
      picked := b :: !picked;
      incr n
    end
  done;
  !picked

(* Phase 2: commit or roll back. Abort leaves the old map in force with
   the source unfrozen — nothing observable changed since the freeze
   (the backlog only aged). The commit path is one simulation event:
   backlog partition, state carve/fold, recovery-cell refresh, map
   flip, re-home — no packet can interleave. *)
let rec commit c s st () =
  match st.mig with
  | None -> ()
  | Some mg ->
      let ec = c.ec and now = Engine.now c.engine in
      let nb = Array.length st.map in
      let src = s.replicas.(mg.mg_src) and dst = s.replicas.(mg.mg_dst) in
      let abort () =
        st.mig <- None;
        c.migration_aborts <- c.migration_aborts + 1;
        st.last_op <- now;
        st.backoff <- now +. ec.cooldown_ns;
        Server.unpause src
      in
      if c.down || Server.is_down src || Server.is_down dst || not (link_ok s mg.mg_dst) then
        abort ()
      else begin
        let backlog = Server.take_backlog src in
        let moved, kept =
          List.partition (fun ctx -> List.mem (bucket s ctx nb) mg.mg_buckets) backlog
        in
        if Server.free_slots dst < List.length moved then begin
          (* No room at the destination: put the backlog back untouched
             and retry until the deadline, then roll back. *)
          Server.requeue src backlog;
          if
            (* More frozen packets than the destination ring can ever
               hold: no amount of retrying helps, and every retry keeps
               the source frozen and its backlog growing. *)
            List.length moved > c.ring_capacity || now +. ec.commit_retry_ns > mg.mg_deadline
          then abort ()
          else Engine.schedule c.engine ~delay:ec.commit_retry_ns (commit c s st)
        end
        else begin
          Server.requeue src kept;
          (* State transfer: carve the moving flows' per-flow entries out
             of the source instance and fold them into the destination
             ([None] = Replicated_readonly, where replicas are
             interchangeable and nothing moves). *)
          (match s.nfs.(mg.mg_src).Nfp_nf.Nf.extract with
          | Some extract ->
              let in_moved flow = List.mem (flow_bucket flow nb) mg.mg_buckets in
              Nfp_nf.Nf.absorb s.nfs.(mg.mg_dst) (extract in_moved)
          | None -> ());
          Recovery.refresh s.cells.(mg.mg_src);
          Recovery.refresh s.cells.(mg.mg_dst);
          List.iter (fun b -> st.map.(b) <- mg.mg_dst) mg.mg_buckets;
          st.mig <- None;
          c.migrations <- c.migrations + 1;
          c.migrated_packets <- c.migrated_packets + List.length moved;
          st.last_op <- now;
          (* Unpause first: orphaned emissions of already-executed source
             jobs pump now, so downstream sees them before anything the
             destination emits for the re-homed packets. *)
          Server.unpause src;
          (* Room was verified above and nothing ran since, so these
             offers cannot fail; [drive] is a backstop, not a code path.
             Under links the re-home crosses the migrate channel — drops
             there retransmit like any other edge. *)
          let channel = s.migrate.(mg.mg_dst) in
          List.iter (fun ctx -> Channel.drive c.engine (fun () -> Channel.offer channel dst ctx)) moved
        end
      end

(* Phase 1: freeze the source and schedule the commit one transfer
   window later. *)
let start c s st ~src ~dst ~count =
  if
    count > 0 && src <> dst && alive s src && alive s dst
    && (not (Server.is_paused s.replicas.(src)))
    && Engine.now c.engine >= st.backoff
  then begin
    let buckets = pick_buckets st ~src ~count in
    if buckets <> [] then begin
      st.mig <-
        Some
          {
            mg_src = src;
            mg_dst = dst;
            mg_buckets = buckets;
            mg_deadline = Engine.now c.engine +. c.ec.migration_deadline_ns;
          };
      Server.pause s.replicas.(src);
      Engine.schedule c.engine ~delay:c.ec.transfer_ns (commit c s st)
    end
  end

let step c s st =
  if st.mig = None then begin
    let ec = c.ec and now = Engine.now c.engine in
    let floor_active = max 1 (min ec.min_replicas (Array.length s.replicas)) in
    let limit = min ec.max_replicas (Array.length s.replicas) in
    (* Retire a drained replica: it owns no buckets, so no packet can
       reach it — deactivation is pure bookkeeping. Its counters stay in
       the [health] sums (cluster totals must not dip when a core
       disappears from the active set). *)
    if st.draining >= 0 && owned st st.draining = 0 then begin
      st.active <- st.active - 1;
      st.draining <- -1;
      c.scale_ins <- c.scale_ins + 1;
      st.last_op <- now
    end;
    if st.draining >= 0 then begin
      (* Scale-in in progress: hand the draining replica's buckets to
         the least-owned other active replica, one batch per tick. *)
      let dst = ref (-1) in
      for r = 0 to st.active - 1 do
        if r <> st.draining && alive s r && (!dst < 0 || owned st r < owned st !dst) then
          dst := r
      done;
      if !dst >= 0 then
        start c s st ~src:st.draining ~dst:!dst
          ~count:(min ec.migration_batch (owned st st.draining))
    end
    else begin
      (* Rebalance toward equal ownership (this is also how a
         just-activated replica, owning nothing, fills up). *)
      let mx = ref (-1) and mn = ref (-1) in
      for r = 0 to st.active - 1 do
        if alive s r then begin
          if !mx < 0 || owned st r > owned st !mx then mx := r;
          if !mn < 0 || owned st r < owned st !mn then mn := r
        end
      done;
      if !mx >= 0 && !mn >= 0 && owned st !mx - owned st !mn >= 2 then
        start c s st ~src:!mx ~dst:!mn
          ~count:(min ec.migration_batch ((owned st !mx - owned st !mn) / 2))
      else if now -. st.last_op >= ec.cooldown_ns then begin
        let max_occ = ref 0.0 in
        for r = 0 to st.active - 1 do
          if alive s r then max_occ := Float.max !max_occ (occ c s r)
        done;
        if !max_occ >= ec.scale_out_occupancy && st.active < limit && alive s st.active then begin
          (* Activate the next standby; rebalance moves buckets onto it
             from the next tick on. *)
          st.active <- st.active + 1;
          c.scale_outs <- c.scale_outs + 1;
          st.last_op <- now
        end
        else if !max_occ <= ec.scale_in_occupancy && st.active > floor_active then begin
          st.draining <- st.active - 1;
          st.last_op <- now
        end
      end
    end
  end

(* Whether the controller can move a draining replica's buckets by
   itself, waiting out a backoff at most: the source and some other
   active replica must be alive. *)
let drain_movable s st =
  let rec has_dst r =
    r < st.active && ((r <> st.draining && alive s r) || has_dst (r + 1))
  in
  alive s st.draining && has_dst 0

(* The self-rescheduling tick, allocated once per wake-up. *)
let ticker c =
  let rec tick () =
    if not c.down then
      for i = 0 to Array.length c.slots - 1 do
        let s = c.slots.(i) in
        match s.steer with Some st -> step c s st | None -> ()
      done;
    (* A drain whose source, or every destination, is down or cut off
       waits for a revive, and only another event can bring one (a
       watchdog restart, a hang's end, a link healing). With nothing
       else on the calendar it never comes, so polling that drain would
       spin forever. *)
    let pending =
      Array.exists
        (fun s ->
          match s.steer with
          | None -> false
          | Some st ->
              st.mig <> None
              || (st.draining >= 0 && (Engine.pending c.engine > 0 || drain_movable s st)))
        c.slots
      || c.busy ()
    in
    if pending then Engine.schedule c.engine ~delay:c.ec.control_interval_ns tick
    else c.ticking <- false
  in
  tick

let create cfg engine ~fault ~ring_capacity ~busy slots =
  match cfg with
  | Some ec when Array.exists (fun s -> Option.is_some s.steer) slots ->
      let c =
        {
          ec;
          engine;
          ring_capacity;
          busy;
          slots;
          down = false;
          ticking = false;
          scale_outs = 0;
          scale_ins = 0;
          migrations = 0;
          migration_aborts = 0;
          migrated_packets = 0;
        }
      in
      (* Controller fault site: the pseudo-core "elastic". *)
      (match fault with
      | None -> ()
      | Some (fc : Config.fault_config) -> (
          match Nfp_sim.Fault.for_core fc.plan "elastic" with
          | None -> ()
          | Some fcore ->
              List.iter
                (function
                  | Nfp_sim.Fault.Crash { at_ns } ->
                      Engine.schedule engine ~delay:at_ns (fun () ->
                          c.down <- true;
                          Engine.schedule engine ~delay:fc.restart_ns (fun () -> c.down <- false))
                  | Nfp_sim.Fault.Hang { at_ns; duration_ns } ->
                      Engine.schedule engine ~delay:at_ns (fun () -> c.down <- true);
                      Engine.schedule engine ~delay:(at_ns +. duration_ns) (fun () ->
                          c.down <- false)
                  | Nfp_sim.Fault.Slowdown _ | Nfp_sim.Fault.Drop _ -> ())
                fcore.Nfp_sim.Fault.events));
      On c
  | _ -> Off

let kick = function
  | Off -> ()
  | On c ->
      if not c.ticking then begin
        c.ticking <- true;
        Engine.schedule c.engine ~delay:c.ec.control_interval_ns (ticker c)
      end

let report t (h : Nfp_sim.Harness.health) =
  match t with
  | Off -> h
  | On c ->
      {
        h with
        scale_outs = c.scale_outs;
        scale_ins = c.scale_ins;
        migrations = c.migrations;
        migration_aborts = c.migration_aborts;
        migrated_packets = c.migrated_packets;
        migrating =
          Array.fold_left
            (fun acc s ->
              match s.steer with
              | Some { mig = Some mg; _ } -> acc + Server.queue_length s.replicas.(mg.mg_src)
              | _ -> acc)
            0 c.slots;
      }

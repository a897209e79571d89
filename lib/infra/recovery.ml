open Nfp_packet
module Server = Nfp_sim.Server
module Engine = Nfp_sim.Engine

type 'job role =
  | Infra
  | Nf of {
      mid : int;
      name : string;
      drain : 'job Server.t -> int;
      cell : cell;
      standby : unit -> bool;
    }

(* Lossless-recovery cell, armed when checkpointing is on and the NF
   can snapshot/restore its state: the last checkpoint, plus a bounded
   log of pre-processing packet copies appended since (each carries its
   MID/PID/version metadata). A full log forces a checkpoint early —
   never a silent loss. [charge] is bound to the core at registration,
   so checkpoint time lands on the NF core. *)
and cell = live option

and live = {
  owner : t;
  nf : Nfp_nf.Nf.t;
  snap : unit -> Nfp_nf.Nf.state;
  restore : Nfp_nf.Nf.state -> unit;
  mutable saved : Nfp_nf.Nf.state;
  mutable entries : Packet.t list;  (* newest first *)
  mutable len : int;
  mutable charge : float -> unit;
}

and probe = Probe : 'job Server.t * 'job role -> probe

(* A watched core and its heartbeat baseline. *)
and watch = {
  probe : probe;
  mutable state : [ `Up | `Restarting | `Bypassed ];
  mutable prev_processed : int;
  mutable prev_stalled : float;
  mutable last_progress : float;
  mutable consec : int;
      (* circuit breaker: consecutive detections since the core's last
         processed-packet progress *)
}

and t = {
  fault : Config.fault_config option;
  engine : Engine.t;
  cost : Nfp_sim.Cost.t;
  armed_plan : bool;
  lossless : bool;
  log_capacity : int;
  ckpt_ns : float;
  degraded : bool array;
  mutable watched : watch array;
  mutable active : bool;
  mutable next_ckpt : float;
  mutable checkpoints : int;
  mutable forced_checkpoints : int;
  mutable replayed : int;
  mutable salvaged : int;
  mutable detections : int;
  mutable restarts : int;
  mutable bypasses : int;
  mutable degrades : int;
  mutable recoveries : int;
  mutable breaker_trips : int;
  mutable backoffs : int;
}

(* The armed breaker's restart backoff: the n-th consecutive restart of
   a core waits [restart_ns * backoff_factor^(n-1)], capped. *)
let backoff_factor = 2.0
let backoff_max_ns = 2_000_000.0

let create fault engine ~cost ~graphs =
  (* Input logging, snapshot charges and dedup are gated on an armed
     plan: a fault config with an empty plan must leave the packet trace
     byte-identical to a system built without one. *)
  let armed_plan =
    match fault with
    | Some (fc : Config.fault_config) -> not (Nfp_sim.Fault.is_empty fc.plan)
    | None -> false
  in
  {
    fault;
    engine;
    cost;
    armed_plan;
    lossless =
      armed_plan
      && (match fault with Some fc -> fc.checkpoint_interval_ns > 0.0 | None -> false);
    log_capacity = (match fault with Some fc -> max 1 fc.log_capacity | None -> 1);
    ckpt_ns = Nfp_sim.Cost.ns_of_cycles cost cost.checkpoint_cycles;
    degraded = Array.make graphs false;
    watched = [||];
    active = false;
    next_ckpt = infinity;
    checkpoints = 0;
    forced_checkpoints = 0;
    replayed = 0;
    salvaged = 0;
    detections = 0;
    restarts = 0;
    bypasses = 0;
    degrades = 0;
    recoveries = 0;
    breaker_trips = 0;
    backoffs = 0;
  }

let armed t = t.armed_plan
let degraded t mid = t.degraded.(mid - 1)

(* ------------------------------------------------------------------ *)
(* Recovery cells                                                      *)
(* ------------------------------------------------------------------ *)

let none = None

let cell t (nf : Nfp_nf.Nf.t) =
  if not t.lossless then None
  else
    match (nf.snapshot, nf.restore) with
    | Some snap, Some restore ->
        Some
          {
            owner = t;
            nf;
            snap;
            restore;
            saved = snap ();
            entries = [];
            len = 0;
            charge = ignore;
          }
    | _ -> None

let reseed a =
  a.saved <- a.snap ();
  a.entries <- [];
  a.len <- 0

(* An empty log means no packet touched the NF since the last snapshot:
   the state cannot have changed, so re-snapshotting would buy nothing
   and still charge the core. *)
let checkpoint ~forced a =
  if a.len > 0 then begin
    reseed a;
    let t = a.owner in
    t.checkpoints <- t.checkpoints + 1;
    if forced then t.forced_checkpoints <- t.forced_checkpoints + 1;
    a.charge t.ckpt_ns
  end

let log c pkt =
  match c with
  | None -> ()
  | Some a ->
      if a.len >= a.owner.log_capacity then checkpoint ~forced:true a;
      a.entries <- Packet.full_copy pkt :: a.entries;
      a.len <- a.len + 1

let log_cycles = function None -> 0 | Some a -> a.owner.cost.log_append

(* Migration commit: the replica's state just changed out from under the
   checkpoint (entries carved out at the source, folded in at the
   destination), so a later crash-replay must not resurrect migrated
   state or lose absorbed state. *)
let refresh = function None -> () | Some a -> reseed a

(* Restore the checkpoint and re-process the log in arrival order on the
   logged copies: state effects replay exactly, nothing is emitted (the
   original emissions stand — output suppression), and the time is
   returned as added downtime. The replayed state is the fresh
   checkpoint — uncharged, since the replay already sits in the core's
   downtime. *)
let replay = function
  | None -> 0.0
  | Some a ->
      let t = a.owner and cost = a.owner.cost in
      a.restore a.saved;
      let extra = ref 0.0 in
      List.iter
        (fun pkt ->
          let cycles = cost.replay_cycles + a.nf.cost_cycles pkt in
          (try ignore (a.nf.process pkt) with _ -> ());
          t.replayed <- t.replayed + 1;
          extra := !extra +. Nfp_sim.Cost.ns_of_cycles cost cycles)
        (List.rev a.entries);
      reseed a;
      !extra

let cell_of : type job. job role -> cell = function
  | Infra -> None
  | Nf { cell; _ } -> cell

(* ------------------------------------------------------------------ *)
(* Core registry and watchdog: per-core progress heartbeats. A core is *)
(* healthy while it processes packets or at least retries a stalled    *)
(* emission (backpressure is not failure); a core with queued work and *)
(* a frozen heartbeat past the deadline is declared failed and its     *)
(* recovery policy runs. The watchdog wakes on injection and stops     *)
(* rescheduling itself when every core is idle, so a finished          *)
(* simulation drains.                                                  *)
(* ------------------------------------------------------------------ *)

let register (type job) t (server : job Server.t) (role : job role) =
  (match cell_of role with Some a -> a.charge <- Server.charge server | None -> ());
  let w =
    {
      probe = Probe (server, role);
      state = `Up;
      prev_processed = 0;
      prev_stalled = 0.0;
      last_progress = 0.0;
      consec = 0;
    }
  in
  t.watched <- Array.append t.watched [| w |]

let mark_progress w now =
  let (Probe (s, _)) = w.probe in
  w.prev_processed <- Server.processed s;
  w.prev_stalled <- Server.stalled_ns s;
  w.last_progress <- now

let recover t (fc : Config.fault_config) w =
  let (Probe (server, role)) = w.probe in
  t.detections <- t.detections + 1;
  w.consec <- w.consec + 1;
  (* Past the first consecutive detection an armed breaker backs the
     restart off; a threshold of 0 disables both the backoff and the
     trip (the pre-breaker behavior, bit for bit). *)
  let breaker_on = fc.breaker_threshold > 0 in
  let restart_delay () =
    if breaker_on && w.consec > 1 then begin
      t.backoffs <- t.backoffs + 1;
      Float.min backoff_max_ns
        (fc.restart_ns *. (backoff_factor ** float_of_int (w.consec - 1)))
    end
    else fc.restart_ns
  in
  (* Lossless restart: restore the last checkpoint and replay the input
     log before the core comes back — the replay time extends the outage
     — then re-admit the reclaimed casualties instead of flushing them. *)
  let restart_core ~on_up () =
    w.state <- `Restarting;
    Server.kill server;
    let replay_ns = if t.lossless then replay (cell_of role) else 0.0 in
    Engine.schedule t.engine ~delay:(restart_delay () +. replay_ns) (fun () ->
        if t.lossless then begin
          let jobs, emits = Server.casualty_counts server in
          t.salvaged <- t.salvaged + jobs + emits
        end;
        ignore (Server.revive ~flush:(not t.lossless) server);
        t.restarts <- t.restarts + 1;
        w.state <- `Up;
        mark_progress w (Engine.now t.engine);
        on_up ())
  in
  let degrade mid =
    t.degraded.(mid - 1) <- true;
    t.degrades <- t.degrades + 1
  in
  match role with
  | Infra -> restart_core ~on_up:ignore ()
  | Nf { mid; name; drain; _ } -> (
      let bypass_core () =
        w.state <- `Bypassed;
        t.bypasses <- t.bypasses + 1;
        Server.kill server;
        ignore (drain server)
      in
      if breaker_on && w.consec > fc.breaker_threshold then begin
        t.breaker_trips <- t.breaker_trips + 1;
        match fc.breaker_fallback with
        | Restart | Bypass -> bypass_core ()
        | Degrade ->
            (* Pin the graph to its sequential twin and remove the
               hopeless core; no [on_up] ever clears the flag. *)
            degrade mid;
            bypass_core ()
      end
      else
        match fc.recovery_of name with
        | Restart -> restart_core ~on_up:ignore ()
        | Bypass -> bypass_core ()
        | Degrade ->
            degrade mid;
            restart_core
              ~on_up:(fun () ->
                t.degraded.(mid - 1) <- false;
                t.recoveries <- t.recoveries + 1)
              ())

(* One watchdog pass; whether any core still needs watching. *)
let scan t (fc : Config.fault_config) =
  let now = Engine.now t.engine in
  (* Periodic checkpoint tick: snapshot every live core's NF state and
     truncate its input log. Rides the watchdog's wake/sleep cycle, so an
     idle system takes no checkpoints; a down core is never
     checkpointed. *)
  if t.lossless && now >= t.next_ckpt then begin
    Array.iter
      (fun w ->
        let (Probe (s, role)) = w.probe in
        if w.state = `Up && not (Server.is_down s) then
          Option.iter (checkpoint ~forced:false) (cell_of role))
      t.watched;
    t.next_ckpt <- now +. fc.checkpoint_interval_ns
  end;
  let pending = ref false in
  Array.iter
    (fun w ->
      let (Probe (s, _)) = w.probe in
      let pc = Server.processed s and st = Server.stalled_ns s in
      let down = Server.is_down s in
      let queued = Server.queue_length s > 0 in
      if pc > w.prev_processed || st > w.prev_stalled then begin
        (* Real processed progress (not just stall retries) closes the
           breaker window: the core is alive again. *)
        if pc > w.prev_processed then w.consec <- 0;
        mark_progress w now
      end
      else if not queued then
        (* An idle core is healthy. Keeping its baseline fresh makes the
           deadline clock start when work is queued, not when it last
           processed — otherwise a burst landing on a long-idle core
           (e.g. merge timeouts releasing a wedge) trips an instant
           false kill. *)
        w.last_progress <- now
      else if Server.is_paused s && not down then
        (* A quiesced migration source is healthy: the elastic
           controller froze it deliberately and owns unfreezing it
           (commit or abort) — declaring it dead would restart a core
           mid-handover. The breaker window stays open too: a pause is
           not progress. *)
        w.last_progress <- now
      else if Server.is_busy s && not down then
        (* A core mid-breath is healthy: its completion event is already
           on the calendar. With large batches a single breath can
           legally outlast the deadline while the processed counter
           stands still — only a *down* core (crashed or hung, which
           [interrupt] marks) may have a frozen heartbeat counted
           against it. *)
        w.last_progress <- now
      else if w.state = `Up && now -. w.last_progress > fc.watchdog_deadline_ns then
        recover t fc w;
      match w.state with
      | `Bypassed -> ()
      | `Restarting -> pending := true
      | `Up ->
          if Server.queue_length s > 0 || ((not (Server.is_down s)) && Server.is_busy s)
          then pending := true)
    t.watched;
  !pending

(* The self-rescheduling watchdog, allocated once per wake-up. *)
let watchdog t (fc : Config.fault_config) =
  let rec check () =
    if scan t fc then Engine.schedule t.engine ~delay:fc.watchdog_interval_ns check
    else t.active <- false
  in
  check

let kick t =
  match t.fault with
  | None -> ()
  | Some fc ->
      if not t.active then begin
        t.active <- true;
        (* Reset the heartbeats on wake-up: idle time must not count
           against the deadline. The checkpoint clock restarts with the
           watchdog for the same reason. *)
        let now = Engine.now t.engine in
        if t.lossless then t.next_ckpt <- now +. fc.checkpoint_interval_ns;
        Array.iter (fun w -> mark_progress w now) t.watched;
        Engine.schedule t.engine ~delay:fc.watchdog_interval_ns (watchdog t fc)
      end

let busy t =
  Array.exists
    (fun { probe = Probe (s, _); _ } -> Server.queue_length s > 0 || Server.is_busy s)
    t.watched

let pressured t = Array.exists (fun { probe = Probe (s, _); _ } -> Server.pressured s) t.watched

let report t (h : Nfp_sim.Harness.health) =
  let core_health { probe = Probe (s, role); state; _ } =
    {
      Nfp_sim.Harness.core = Server.name s;
      state =
        (match state with
        | `Bypassed -> "bypassed"
        | `Restarting -> "restarting"
        | `Up ->
            (* Only the elastic controller pauses a core: a paused core
               is a migration source, quiesced, not dead. *)
            if Server.is_down s then "down"
            else if Server.is_paused s then "migrating"
            else if match role with Nf { standby; _ } -> standby () | Infra -> false
            then "standby"
            else "up");
      processed = Server.processed s;
      queue = Server.queue_length s;
    }
  in
  let crashes = ref 0 and fault_drops = ref 0 and flushed = ref 0 in
  let rejected = ref 0 and pressure_episodes = ref 0 in
  Array.iter
    (fun { probe = Probe (s, _); _ } ->
      crashes := !crashes + Server.crashes s;
      fault_drops := !fault_drops + Server.fault_drops s;
      flushed := !flushed + Server.flushed s;
      rejected := !rejected + Server.rejected s;
      pressure_episodes := !pressure_episodes + Server.pressure_episodes s)
    t.watched;
  {
    h with
    cores = Array.to_list (Array.map core_health t.watched);
    detections = t.detections;
    crashes = !crashes;
    restarts = t.restarts;
    bypasses = t.bypasses;
    degrades = t.degrades;
    recoveries = t.recoveries;
    checkpoints = t.checkpoints;
    forced_checkpoints = t.forced_checkpoints;
    replayed = t.replayed;
    salvaged = t.salvaged;
    drops =
      {
        h.drops with
        (* [ingress_rejected] counts exactly the NIC-boundary offer
           refusals; every other refusal a ring recorded is a
           backpressure retry event, not a loss. *)
        internal_rejected = max 0 (!rejected - h.drops.ingress_rejected);
        fault_dropped = !fault_drops;
        flush_lost = !flushed;
      };
    pressure_episodes = !pressure_episodes;
    breaker_trips = t.breaker_trips;
    backoffs = t.backoffs;
  }

(** The deployment knobs of {!System}, with their defaults. [System]
    includes this module, so every name here is also [System.<name>]. *)

type config = {
  cost : Nfp_sim.Cost.t;
  ring_capacity : int;
  mergers : int;  (** merger instances; > 1 adds the agent core *)
  jitter : float;  (** ± fractional service jitter per core *)
  seed : int64;
  batch_size : int;
      (** breath size of every core's poll loop; 1 restores per-packet
          execution bit-for-bit. Output is batch-size invariant. *)
  replicas : int;
      (** target replica count (compiled path only) for NFs the
          replication analysis clears ({!Nfp_core.Replication.shardable});
          other NFs keep one instance. Flows are steered to a fixed
          replica by a seeded 5-tuple hash, so per-flow state never
          splits; replica [r >= 1] runs on core [mid<k>:<nf>@<r>]. *)
}

let default_config =
  {
    cost = Nfp_sim.Cost.default;
    ring_capacity = 128;
    mergers = 1;
    jitter = 0.05;
    seed = 7L;
    batch_size = Nfp_sim.Cost.default.batch;
    replicas = 1;
  }

(** {2 Fault tolerance} *)

(** What the watchdog does with an NF core that stopped making
    progress. Infrastructure cores (classifier, mergers, merger agent,
    twin-chain cores) always use [Restart]. *)
type recovery =
  | Restart
      (** bring the core back after [restart_ns]; its backlog is lost
          ([drops.flush_lost]) unless checkpointing makes it lossless *)
  | Bypass
      (** remove the core from the graph: packets skip its processing
          but still run its action program, so no merger waits on it *)
  | Degrade
      (** run the graph in the plan's sequential order on a twin chain
          until the core has restarted *)

type fault_config = {
  plan : Nfp_sim.Fault.plan;  (** which cores fail, how, and when *)
  watchdog_interval_ns : float;  (** heartbeat sampling period; must be > 0 *)
  watchdog_deadline_ns : float;
      (** a core with queued work but no progress — neither a processed
          packet nor a backpressure retry — for this long is declared
          failed; backpressure alone never trips the watchdog *)
  merge_timeout_ns : float;
      (** mergers force-complete an accumulation this old with the
          versions that did arrive; 0.0 disables the timeout *)
  restart_ns : float;  (** downtime of a Restart / Degrade recovery; must be >= 0 *)
  recovery_of : string -> recovery;  (** policy per NF instance name *)
  checkpoint_interval_ns : float;
      (** period of the per-core NF state checkpoints that make Restart
          lossless (restore, replay the input log, re-admit reclaimed
          work); 0.0 disables them. NFs without [Nf.snapshot] and
          [Nf.restore] always recover lossily. *)
  log_capacity : int;
      (** bound on each core's input log (packets since its last
          checkpoint); a full log forces an early checkpoint (counted in
          [health.forced_checkpoints]), never silent truncation *)
  breaker_threshold : int;
      (** circuit breaker: after this many consecutive watchdog
          detections of the same NF core with no processed-packet
          progress in between, stop restarting it and apply
          [breaker_fallback]. Armed, the n-th consecutive restart of a
          core also backs off exponentially (2x per detection, capped at
          2 ms; counted in [health.backoffs]). 0 disables both — the
          recover-forever behavior, bit for bit. *)
  breaker_fallback : recovery;
      (** policy for a tripped core: [Bypass] removes it from the
          graph; [Degrade] pins its graph to the sequential twin and
          removes it; [Restart] is treated as [Bypass]. Infrastructure
          cores never trip (they only back off). *)
  dedup_capacity : int;
      (** bound on each (pid, version) dedup table (delivery filter,
          merger memories); an entry survives at least
          [dedup_capacity / 2] further insertions *)
}

(** An empty plan, Restart everywhere, 30/120 us watchdog
    interval/deadline, 250 us merge timeout,
    {!Nfp_sim.Cost.default}'s [restart_ns], 100 us checkpoint interval,
    a 4096-packet input log, the circuit breaker disabled (with a
    Bypass fallback once enabled), and 65536-entry dedup tables. *)
let default_fault_config =
  {
    plan = Nfp_sim.Fault.empty;
    watchdog_interval_ns = 30_000.0;
    watchdog_deadline_ns = 120_000.0;
    merge_timeout_ns = 250_000.0;
    restart_ns = Nfp_sim.Cost.default.restart_ns;
    recovery_of = (fun _ -> Restart);
    checkpoint_interval_ns = 100_000.0;
    log_capacity = 4096;
    breaker_threshold = 0;
    breaker_fallback = Bypass;
    dedup_capacity = 65_536;
  }

(** {2 Overload control} *)

(** Arms the overload control plane (compiled path only): every ring
    gets the high/low watermark latch, the classifier front end gains
    the priority-aware admission controller (chains with a lower
    [Tables.plan.priority] shed first, one class per 2 us poll; the
    highest class is never shed, and each shed class still admits 1
    packet in 16), and NFs with a declared degrade mode coarsen under
    their own core's occupancy pressure. A deployment built without an
    overload config is bit-identical to the pre-overload system. *)
type overload_config = {
  high_watermark : int;
      (** ring occupancy at which a core's pressure latch raises; must
          satisfy [0 <= low < high <= ring_capacity] *)
  low_watermark : int;
      (** occupancy at which the latch releases — the hysteresis band
          keeps a sawtooth queue from flapping the signal *)
  degrade_enabled : bool;
      (** let NFs that declare an [Nf.degrade] mode coarsen while their
          own ring sits above the watermark *)
}

(** Watermarks 96/48 (3/4 and 3/8 of the default ring capacity),
    degrade enabled. *)
let default_overload_config =
  { high_watermark = 96; low_watermark = 48; degrade_enabled = true }

(** {2 Elastic scale-out} *)

(** Arms elastic scale-out with live migration (compiled path only):
    per NF the plan clears for sharding and whose state supports
    runtime extraction ({!Nfp_core.Replication.migratable}), a
    controller watches per-replica ring occupancy and scales the
    replica set out and in at runtime, re-homing RSS buckets through a
    two-phase migration (see {!Elastic}). A deployment built without an
    elastic config — or with one whose thresholds never trigger —
    produces a packet trace bit-identical to the pre-elastic system. *)
type elastic_config = {
  min_replicas : int;
      (** scale-in floor; also the initially-active replica count *)
  max_replicas : int;
      (** scale-out ceiling; standby replicas up to this count are
          built at deployment and activated at runtime *)
  buckets : int;
      (** steering granularity: flows hash into this many RSS buckets,
          each owned by one replica; migrations re-home whole buckets.
          Must be [>= max_replicas]. *)
  control_interval_ns : float;  (** controller tick period *)
  scale_out_occupancy : float;
      (** scale out when any active replica's queue occupancy (fraction
          of ring capacity) reaches this *)
  scale_in_occupancy : float;
      (** scale in when every active replica sits at or below this;
          must be [< scale_out_occupancy] (hysteresis) *)
  migration_batch : int;  (** max buckets re-homed per migration *)
  transfer_ns : float;
      (** modeled state-transfer window: the source replica stays
          frozen this long between freeze and commit *)
  migration_deadline_ns : float;
      (** a migration that cannot commit by freeze + deadline
          (destination full, a party down) aborts, rolling back to the
          old steering map with nothing observable changed *)
  commit_retry_ns : float;
      (** retry period of a commit blocked on destination ring space *)
  cooldown_ns : float;  (** minimum time between scale decisions per NF slot *)
}

(** 1..4 replicas over 64 buckets; 20 us ticks, scale out at 50%
    occupancy, in at 5%; 16-bucket batches, 30 us transfer window,
    200 us deadline, 2 us commit retry, 50 us cooldown. *)
let default_elastic_config =
  {
    min_replicas = 1;
    max_replicas = 4;
    buckets = 64;
    control_interval_ns = 20_000.0;
    scale_out_occupancy = 0.5;
    scale_in_occupancy = 0.05;
    migration_batch = 16;
    transfer_ns = 30_000.0;
    migration_deadline_ns = 200_000.0;
    commit_retry_ns = 2_000.0;
    cooldown_ns = 50_000.0;
  }

(** {2 Lossy fabric and reliable channels} *)

(** Arms the lossy-interconnect fault domain (compiled path only):
    every inter-core edge whose destination port the plan names
    (classifier->NF, NF->NF, branch->merger, merger->delivery,
    migration transfers) becomes a modeled link with its own seeded
    fault processes (see {!Nfp_sim.Fault.link_fault}) and, when
    [reliable] is set, an ARQ channel that makes delivery exactly-once
    over that fabric. A Down link also steers the elastic controller
    away from the unreachable replica. Link counters surface as
    [health.links]. A deployment built without a links config — or
    with an empty plan and [reliable = false] — is bit-identical to the
    pre-links system. *)
type links_config = {
  link_plan : Nfp_sim.Fault.link_plan;
      (** which links misbehave, how, and when; link names are the
          destination port — the core name (["mid1:NAT"],
          ["merger#0"]) or the pseudo-ports ["delivery"] and
          ["migrate:<replica>"] — with trailing-[*] prefix patterns
          (["mid1:*"], ["*"]) matching families *)
  reliable : bool;
      (** arm the per-link ARQ channels; [false] models the raw fabric
          — drops are real losses (the run ledger's [in_flight]
          residual) and duplicates deliver twice *)
  link_window : int;
      (** sender window per link: max unacked sends before [send]
          refuses (backpressure, exactly like a full ring) *)
  ack_interval_ns : float;
      (** cumulative-ack cadence — acks ride breath completions *)
  rto_ns : float;  (** initial head-of-line retransmit timeout *)
  rto_backoff : float;
      (** RTO multiplier per consecutive firing without ack progress;
          must be [>= 1.0] *)
  rto_max_ns : float;  (** ceiling on the backed-off RTO *)
  retransmit_budget : int;
      (** retransmissions of one packet before the link is declared
          Down and its unacked traffic reroutes *)
  reorder_window : int;
      (** receiver reorder-buffer span in sequence numbers; arrivals
          beyond it are refused and recovered by retransmission *)
  probe_interval_ns : float;
      (** link health-probe cadence while data is outstanding; 0
          disables probing (budget exhaustion still detects
          partitions) *)
  probe_timeout_k : int;  (** consecutive probe timeouts declaring Down *)
}

(** An empty plan; reliable, window 256 over a 256-seq reorder buffer,
    1 us ack cadence, 25 us RTO backing off 2x to 400 us, a 16-retry
    budget, 5 us probes declaring Down after 3 misses. *)
let default_links_config =
  {
    link_plan = Nfp_sim.Fault.no_links;
    reliable = true;
    link_window = 256;
    ack_interval_ns = 1_000.0;
    rto_ns = 25_000.0;
    rto_backoff = 2.0;
    rto_max_ns = 400_000.0;
    retransmit_budget = 16;
    reorder_window = 256;
    probe_interval_ns = 5_000.0;
    probe_timeout_k = 3;
  }

(** The NFP dataplane (paper §5) on the simulator.

    Deploys a compiled plan: one core for the classifier, one per NF
    (the NF plus its runtime share the core, as in the paper), and one
    per merger instance — plus a merger-agent core when more than one
    merger instance is configured (§5.3). Packet references flow
    through bounded rings; copies, merge operations and nil packets
    follow the plan's tables. *)

open Nfp_packet

include module type of struct
  include Config
end
(** The deployment knobs and their defaults (see {!Config}). *)

type core_stats = {
  core : string;
      (** classifier, mid<k>:<nf> (replica 0), mid<k>:<nf>@<r> (RSS
          shard r ≥ 1), merger#<i>, merger-agent *)
  busy_ns : float;
  stalled_ns : float;  (** time blocked on downstream backpressure *)
  processed : int;
  rejected : int;  (** offers refused because the core's ring was full *)
  queue : int;  (** ring occupancy when sampled *)
}

(** {2 Intra-NF replication} *)

type replica_report = {
  rr_mid : int;
  rr_nf : string;  (** plan instance name *)
  rr_kind : string;
  rr_strategy : Nfp_core.Replication.strategy;  (** derived, not configured *)
  rr_replicas : int;  (** instances actually deployed for this NF *)
  rr_processed : int list;  (** per-replica processed counts, shard order *)
  rr_merged_digest : int;
      (** the state digest a single unreplicated instance would hold:
          replica snapshots combined by [Nf.merge] and restored into a
          fresh scratch instance (Shared_nothing), or the instance
          digest directly (single replica / read-only state). Read it
          after the run drains — it reflects live NF state. *)
}
(** One entry per NF of the deployment, from the [?replication] report
    of {!make}/{!make_multi}. *)

val make :
  ?classify:[ `Cached | `Scan ] ->
  ?config:config ->
  ?fault:fault_config ->
  ?overload:overload_config ->
  ?elastic:elastic_config ->
  ?links:links_config ->
  ?stats:(unit -> core_stats list) ref ->
  ?replication:(unit -> replica_report list) ref ->
  plan:Nfp_core.Tables.plan ->
  nfs:(string -> Nfp_nf.Nf.t) ->
  Nfp_sim.Engine.t ->
  output:(pid:int64 -> Packet.t -> unit) ->
  Nfp_sim.Harness.system
(** A fresh single-graph deployment as a {!Nfp_sim.Harness.system};
    [nfs] maps plan instance names to NF implementations.
    @raise Invalid_argument when an NF name has no implementation. *)

val make_multi :
  ?classify:[ `Cached | `Scan ] ->
  ?config:config ->
  ?fault:fault_config ->
  ?overload:overload_config ->
  ?elastic:elastic_config ->
  ?links:links_config ->
  ?stats:(unit -> core_stats list) ref ->
  ?replication:(unit -> replica_report list) ref ->
  graphs:(Flow_match.t * Nfp_core.Tables.plan * (string -> Nfp_nf.Nf.t)) list ->
  Nfp_sim.Engine.t ->
  output:(pid:int64 -> Packet.t -> unit) ->
  Nfp_sim.Harness.system
(** A deployment hosting several service graphs behind one classifier —
    the paper's Classification Table (Fig. 4): each entry's flow match
    steers packets into its graph (MID = 1-based table position, first
    match wins). NF cores are per graph; merger instances are shared
    ("a merger instance can merge any packet from any service graph",
    §5.3). Unmatched packets are discarded and counted in
    [health.drops.no_match], separate from NF drops. When a [stats] ref is
    supplied it is filled with a sampler of per-core utilization
    counters.

    [classify] selects how the front end resolves a packet's 5-tuple
    against the table. [`Cached] (the default) uses the two-level
    classifier — {!Nfp_packet.Classifier}'s exact-match microflow cache
    backed by the tuple-space matcher — whose hit/miss/eviction
    counters the system exposes through
    [Nfp_sim.Harness.system.classifier]; [`Scan] is the linear
    first-match reference. Both assign identical MIDs; their structural
    cycle costs ([classify_hit]/[classify_group]/[classify_rule], zero
    in {!Nfp_sim.Cost.default}, charged in
    {!Nfp_sim.Cost.classified}) are added as delay ahead of the
    classifier core, so measured latency reflects the lookup structure
    when those terms are enabled.

    When a [replication] ref is supplied it is filled with a thunk
    producing the per-NF {!replica_report} list (see
    [config.replicas]).

    Every plan is translated once, at deployment time, into a
    preresolved program: merge specs in arrays indexed by merge id, NF
    and merger targets bound to their server slots, static per-action
    cycle costs folded into constants, and emissions as cursor-walked
    arrays.

    [fault] arms the fault-tolerance subsystem:
    the plan's perturbations are installed on the named cores, a
    watchdog detects dead or wedged cores from progress heartbeats and
    applies each NF's {!recovery} policy (infrastructure cores always
    restart), mergers time out accumulations a failed branch would
    otherwise wedge, and a sequential twin chain per graph backs the
    [Degrade] policy. When [checkpoint_interval_ns] is positive, NF
    cores additionally checkpoint their state periodically and log
    post-classifier input packets, making Restart lossless: restore +
    deterministic replay + re-admission of reclaimed work, with
    duplicate emissions suppressed at the mergers and the output (the
    recovered run's merged output trace is byte-identical to the
    fault-free run — test/test_recovery.ml proves it differentially).
    Current counters are exposed through the system's [health] field.
    A [fault] config whose plan is {!Nfp_sim.Fault.empty} leaves the
    packet trace byte-identical to a system built without [fault] (the
    differential test in test/test_fastpath.ml enforces this).

    [overload] arms the overload control plane:
    watermark backpressure latches on every ring, the priority-aware
    admission controller at the classifier (shed counts exposed
    through [health.drops.shed] and [shed_by_class]), and
    per-NF pressure-degrade modes. Without it — or with watermarks the
    workload never reaches — the deployment's output is bit-identical
    to the pre-overload system (test/test_overload.ml enforces this).

    [links] arms the lossy-interconnect fault
    domain and, when its [reliable] flag is set, the per-link ARQ
    channels — see {!links_config}.
    @raise Invalid_argument on an empty table, a missing NF, invalid
    fault timing ([watchdog_interval_ns <= 0], [restart_ns < 0]), or
    invalid overload, elastic or links settings. Every violated rule is
    named in the one message, joined with ["; "]. *)

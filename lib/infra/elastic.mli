(** Elastic scale-out of the compiled dataplane: the steering that
    spreads an NF slot's flows over its replicas, and the controller
    that activates, rebalances and retires replicas at runtime through a
    two-phase live state migration.

    Flows hash into RSS buckets; a scalable slot maps each bucket to
    the replica that owns it. A migration freezes the source replica
    (its ring keeps accepting: backpressure, never loss), waits out the
    transfer window, then in one simulation event carves the moving
    flows' state out of the source NF, folds it into the destination,
    refreshes both recovery cells, re-homes the frozen packets and flips
    the map — or aborts and rolls back if a party crashed, a link went
    Down, or the destination stayed full past the deadline.

    Built from [elastic = None], or when no slot is scalable, the
    controller does nothing and every slot keeps its static sharding. *)

type steer
(** The live bucket -> replica map of a scalable slot, with the
    controller's per-slot state (active count, drain, cooldown, the
    migration in flight). *)

(** One NF slot of the compiled dataplane: an NF of one graph, deployed
    as one or more replica cores. *)
type slot = {
  version : int;  (** the packet version the NF reads; steering hashes its 5-tuple *)
  replicas : Context.t Nfp_sim.Server.t array;
  nfs : Nfp_nf.Nf.t array;  (** each replica's NF instance *)
  cells : Recovery.cell array;  (** each replica's recovery cell *)
  bypassed : bool array;  (** replicas the watchdog removed from the graph *)
  skip : Context.t -> unit;
      (** run the slot's action program off-core without the NF: the
          bypass and Down-link reroute path *)
  ports : Context.t Channel.t option array;  (** the link channel into each replica *)
  migrate : Context.t Channel.t option array;
      (** the ["migrate:<replica>"] link re-homed packets cross; empty
          unless the slot is scalable *)
  steer : steer option;  (** [None]: static sharding *)
}

val steer :
  Config.elastic_config option ->
  shardable:(unit -> bool) ->
  base:int ->
  Nfp_nf.Nf.t ->
  steer option
(** Steering for a new slot of [base] static replicas running this NF.
    [Some] when the slot is scalable: elastic is on with a ceiling above
    1, the NF's state supports extraction
    ({!Nfp_core.Replication.migratable}) and the plan clears it for
    sharding. The initial map spreads the buckets over the
    initially-active replicas exactly as static sharding would. *)

val width : steer option -> base:int -> int
(** Replicas to build: [base], or up to the ceiling for a scalable slot
    (standbys are built now, so activation is a pure map change). *)

val standby : steer option -> int -> bool
(** Whether replica [r] is built but not active. *)

val route : slot -> via:int -> Context.t -> int
(** The replica a packet of the slot goes to. A scalable slot looks its
    bucket up in the live map, so a committed flip takes effect for
    every not-yet-offered packet; a static slot hashes to a fixed
    shard. [via] is the replica whose link channel is releasing the
    packet (it keeps that shard), or -1 at a send site. *)

type t

val create :
  Config.elastic_config option ->
  Nfp_sim.Engine.t ->
  fault:Config.fault_config option ->
  ring_capacity:int ->
  busy:(unit -> bool) ->
  slot array ->
  t
(** The controller over the deployment's slots. [busy] tells whether
    any core still has work: the controller ticks only while there is
    some. A fault plan may target the pseudo-core ["elastic"]: while it
    is down no scale decision runs and any commit falling due aborts. *)

val off : t
(** The controller of a deployment with no elastic config: does
    nothing. *)

val kick : t -> unit
(** Wake the controller (called on every injection). *)

val report : t -> Nfp_sim.Harness.health -> Nfp_sim.Harness.health
(** Fill in the scale and migration counters and the [migrating]
    gauge. *)

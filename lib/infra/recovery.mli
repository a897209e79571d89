(** Crash recovery of the compiled dataplane: the per-replica lossless
    recovery cell (checkpoint, input log, replay) and the watchdog with
    its circuit breaker, restart backoff and checkpoint tick.

    Every compiled-path core registers here; the registry is also the
    per-core view that [health] reports. Built from [fault = None] the
    module does nothing: cells are {!none}, the watchdog never wakes,
    and the recovery counters stay zero. *)

open Nfp_packet

type t

val create :
  Config.fault_config option -> Nfp_sim.Engine.t -> cost:Nfp_sim.Cost.t -> graphs:int -> t
(** [graphs] is the number of service graphs (MIDs 1..[graphs]) whose
    [Degrade] state the watchdog tracks. *)

val armed : t -> bool
(** A fault config with a non-empty plan: the (pid, version) dedup
    filters must arm, because replays can re-emit. *)

(** {2 Recovery cells} *)

type cell
(** One NF replica's lossless-restart state: the last checkpoint of the
    NF, plus a bounded log of pre-processing packet copies taken since
    it. *)

val none : cell
(** The inert cell: logs nothing, costs nothing, replays nothing. *)

val cell : t -> Nfp_nf.Nf.t -> cell
(** A cell for a replica running this NF instance; {!none} unless
    checkpointing is on and the NF can snapshot and restore its state.
    Its checkpoints are charged to the core it is registered with. *)

val log : cell -> Packet.t -> unit
(** Append a copy of a packet about to be processed; a full log forces
    a checkpoint first. *)

val log_cycles : cell -> int
(** Per-packet cost of {!log}: [log_append] when armed, else 0. *)

val refresh : cell -> unit
(** Re-seed the checkpoint from the live state and empty the log, after
    a migration changed the state under it. *)

(** {2 Core registry and watchdog} *)

type 'job role =
  | Infra  (** classifier, merger, agent, twin: always restarts *)
  | Nf of {
      mid : int;
      name : string;  (** plan instance name, the key of [recovery_of] *)
      drain : 'job Nfp_sim.Server.t -> int;
          (** Bypass: take the replica out of the graph and reroute its
              casualties and backlog; returns the backlog length *)
      cell : cell;
      standby : unit -> bool;
          (** an elastic replica not yet activated (reported "standby") *)
    }

val register : t -> 'job Nfp_sim.Server.t -> 'job role -> unit
(** Watch a core. Registration order is the watchdog's scan order and
    the order of [health.cores]. *)

val kick : t -> unit
(** Wake the watchdog (called on every injection); it sleeps again once
    every core is idle. *)

val degraded : t -> int -> bool
(** Whether graph [mid] runs on its sequential twin chain. *)

val busy : t -> bool
(** Some core has queued work or is mid-breath. *)

val pressured : t -> bool
(** Some core's watermark latch is raised. *)

val report : t -> Nfp_sim.Harness.health -> Nfp_sim.Harness.health
(** Fill in the per-core view, the recovery counters, and the per-core
    sums ([crashes], [pressure_episodes], and [drops.internal_rejected],
    [fault_dropped], [flush_lost]; [internal_rejected] is read against
    the given [drops.ingress_rejected]). *)

(** Stateless ACL firewall (paper §6.1: "similar to the Click IPFilter
    element… passes or drops packets according to an ACL containing 100
    rules").

    Profile: reads SIP/DIP/SPORT/DPORT, may drop (paper Table 2). *)

open Nfp_packet

type rule = {
  sip_prefix : int32 * int;  (** prefix, length; length 0 matches all *)
  dip_prefix : int32 * int;
  sport_range : int * int;  (** inclusive *)
  dport_range : int * int;
  proto : int option;
  permit : bool;
}

val any_rule : permit:bool -> rule
(** Wildcard rule. *)

val default_acl : int -> rule list
(** [default_acl n] is a deterministic ACL of [n] deny rules over a
    synthetic address plan, followed by an implicit permit — the
    evaluation workload's "ACL containing 100 rules". *)

type stats = { passed : unit -> int; dropped : unit -> int }

val create :
  ?name:string -> ?extra_cycles:int -> ?acl:rule list -> unit -> Nf.t * stats
(** [extra_cycles] makes the firewall busy-loop after processing — the
    paper's NF-complexity knob for Fig. 9. The ACL defaults to
    [default_acl 100]. First matching rule wins; no match permits. *)

val matches : rule -> Packet.t -> bool
(** The reference semantics of one rule. *)

type compiled
(** An ACL compiled to flat integer columns: what the NF scans per
    packet. Instances created from the default ACL, and the [fresh]
    replicas of any instance, share one compiled form. *)

val compile : rule list -> compiled

val first_match : compiled -> Packet.t -> int
(** Index of the first rule that {!matches} the packet, or -1; reads
    each header field once and allocates nothing. *)

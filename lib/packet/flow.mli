(** Transport 5-tuples.

    The classifier matches on the 5-tuple (paper Fig. 4), the load
    balancer ECMP-hashes it, and the monitor keys its counters on it. *)

type t = {
  sip : int32;
  dip : int32;
  sport : int;
  dport : int;
  proto : int;
}

val make : sip:int32 -> dip:int32 -> sport:int -> dport:int -> proto:int -> t
(** @raise Invalid_argument if a port is outside [0, 65535] or the
    protocol outside [0, 255]. *)

val equal : t -> t -> bool

val compare : t -> t -> int

val hash : t -> int
(** ECMP-style 5-tuple hash, non-negative: [Hashing.tuple5] of the
    tuple. *)

val hash_ints : sip:int -> dip:int -> sport:int -> dport:int -> proto:int -> int
(** {!hash} of a tuple whose addresses are unsigned 32-bit native ints
    (e.g. [Packet.sip_int]), so a caller holding a packet hashes its
    flow without building a [t]. *)

val reverse : t -> t
(** Swap source and destination (the return path of the flow). *)

val pp : Format.formatter -> t -> unit

val ip_to_string : int32 -> string

val ip_of_string : string -> int32 option
(** Dotted-quad parse; [None] on malformed input. *)

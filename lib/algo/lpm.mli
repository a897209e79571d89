(** Longest-prefix-match table over IPv4 addresses.

    The bound prefixes are kept in a table keyed by (masked prefix,
    length) and compiled on demand into a sorted interval index: at
    most 2n+1 address ranges, each carrying the value of the longest
    prefix that covers it. A lookup is a binary search over that index
    and allocates nothing. An edit marks the index stale; the next
    lookup rebuilds it, so a table built up front and then only read
    pays the rebuild once. This is the routing substrate of the L3
    forwarder NF (paper §6.1: "longest prefix matching table with 1000
    entries"). *)

type 'a t

val create : unit -> 'a t

val add : 'a t -> prefix:int32 -> len:int -> 'a -> unit
(** [add t ~prefix ~len v] binds value [v] to the [len]-bit prefix of
    [prefix]. A later [add] of the same prefix overwrites the binding.
    @raise Invalid_argument if [len] is outside [0, 32]. *)

val lookup : 'a t -> int32 -> 'a option
(** [lookup t addr] is the value of the longest prefix matching [addr]. *)

val lookup_int : 'a t -> int -> 'a option
(** [lookup_int t addr] is {!lookup} on an address held as an unsigned
    32-bit native int (e.g. [Packet.dip_int]), in [0, 2{^32}). The
    returned option is shared with the table, so repeated lookups
    allocate nothing. *)

val remove : 'a t -> prefix:int32 -> len:int -> unit
(** Remove the binding for exactly that prefix, if present. *)

val entries : 'a t -> int
(** Number of bound prefixes. *)

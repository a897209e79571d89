(** Imperative binary min-heap keyed by a user-supplied comparison.

    Used as the event queue of the discrete-event simulator; [pop] returns
    the smallest element according to the ordering given at creation. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** [create ~cmp] is an empty heap ordered by [cmp]. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Smallest element without removing it. *)

val pop : 'a t -> 'a option
(** Remove and return the smallest element. *)

val clear : 'a t -> unit

(** Min-heap specialized to [(time, seq)] keys held in parallel unboxed
    arrays — the discrete-event simulator's queue. Ordering is by time,
    ties broken by the (monotonic) sequence number, with the comparison
    inlined rather than routed through a closure. Each element carries
    an [int] payload next to its data. *)
module Timed : sig
  type 'a t

  type clock = { mutable now : float }
  (** A flat float cell that {!pop_exn} advances to the popped key. *)

  val create : unit -> 'a t

  val length : 'a t -> int

  val is_empty : 'a t -> bool

  val push : 'a t -> time:float -> seq:int -> 'a -> int -> unit
  (** [push h ~time ~seq x payload]. *)

  val due : 'a t -> float -> bool
  (** [due h limit]: the heap is non-empty and its minimum key is at
      most [limit]. *)

  val min_payload : 'a t -> int
  (** Payload of the minimum element.
      @raise Invalid_argument when empty. *)

  val pop_exn : 'a t -> clock -> 'a
  (** Remove the minimum element, set [clock.now] to its key and return
      its data — a combined peek-and-pop that allocates nothing.
      @raise Invalid_argument when empty. *)

  val clear : 'a t -> unit
end

(** Discrete-event simulation engine.

    A single priority queue of timestamped callbacks. Time is in
    nanoseconds of simulated wall clock; events at equal times fire in
    scheduling order (a monotonic sequence number breaks ties), so runs
    are fully deterministic. *)

type t

val create : unit -> t

val now : t -> float
(** Current simulated time in nanoseconds. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** [schedule t ~delay f] fires [f] at [now t +. delay]. Negative
    delays raise [Invalid_argument]. *)

val schedule_at : t -> float -> (unit -> unit) -> unit
(** Absolute-time variant; times in the past raise [Invalid_argument]. *)

val schedule_call : t -> delay:float -> (int -> unit) -> int -> unit
(** [schedule_call t ~delay handler payload] fires [handler payload] at
    [now t +. delay]: the allocation-free form. A caller that allocates
    [handler] once and carries per-event state in [payload] schedules
    without allocating. Orders with {!schedule} events exactly as a
    closure scheduled at the same point would. Negative delays raise
    [Invalid_argument]. *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** Drain the queue, advancing time. [until] stops the clock at a
    deadline (remaining events stay queued); [max_events] bounds work
    as a runaway guard. *)

val pending : t -> int

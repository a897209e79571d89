(* The clock lives in a single-field all-float record: OCaml stores
   such records flat, so advancing time is a plain store. As a mutable
   float field of the mixed record below it would box a fresh float on
   every event — the simulator's single hottest write. *)
type clock = Nfp_algo.Heap.Timed.clock = { mutable now : float }

(* Every queued event is a handler and its [int] argument. Hot callers
   allocate their handler once and pass per-event state (an epoch, a
   packet index) as the argument, so scheduling allocates nothing. A
   closure scheduled with [schedule] is parked in a slot of [thunks]
   and queued as [fire_thunk] applied to the slot number. *)
type slab = {
  mutable thunks : (unit -> unit) array;
  mutable free : int array;  (* stack of free slots in [thunks] *)
  mutable n_free : int;
}

type t = {
  queue : (int -> unit) Nfp_algo.Heap.Timed.t;
  clock : clock;
  mutable next_seq : int;
  slab : slab;
  fire_thunk : int -> unit;
}

let nop () = ()

let park slab f =
  if slab.n_free = 0 then begin
    let n = Array.length slab.thunks in
    let n' = if n = 0 then 16 else 2 * n in
    let thunks = Array.make n' nop in
    Array.blit slab.thunks 0 thunks 0 n;
    slab.thunks <- thunks;
    slab.free <- Array.init n' (fun k -> n' - 1 - k);
    slab.n_free <- n' - n
  end;
  slab.n_free <- slab.n_free - 1;
  let slot = slab.free.(slab.n_free) in
  slab.thunks.(slot) <- f;
  slot

(* Release the slot before running the thunk, which may schedule more. *)
let fire slab slot =
  let f = slab.thunks.(slot) in
  slab.thunks.(slot) <- nop;
  slab.free.(slab.n_free) <- slot;
  slab.n_free <- slab.n_free + 1;
  f ()

let create () =
  let slab = { thunks = [||]; free = [||]; n_free = 0 } in
  {
    queue = Nfp_algo.Heap.Timed.create ();
    clock = { now = 0.0 };
    next_seq = 0;
    slab;
    fire_thunk = fire slab;
  }

let now t = t.clock.now

let push t time handler payload =
  Nfp_algo.Heap.Timed.push t.queue ~time ~seq:t.next_seq handler payload;
  t.next_seq <- t.next_seq + 1

let check_at t time =
  if time < t.clock.now then invalid_arg "Engine.schedule_at: time is in the past"

let check_delay delay = if delay < 0.0 then invalid_arg "Engine.schedule: negative delay"

let schedule_at t time action =
  check_at t time;
  push t time t.fire_thunk (park t.slab action)

let schedule t ~delay action =
  check_delay delay;
  push t (t.clock.now +. delay) t.fire_thunk (park t.slab action)

let schedule_call t ~delay handler payload =
  check_delay delay;
  push t (t.clock.now +. delay) handler payload

let run ?until ?(max_events = max_int) t =
  let deadline = match until with Some u -> u | None -> infinity in
  let queue = t.queue and clock = t.clock in
  let remaining = ref max_events in
  while !remaining > 0 && Nfp_algo.Heap.Timed.due queue deadline do
    let payload = Nfp_algo.Heap.Timed.min_payload queue in
    let handler = Nfp_algo.Heap.Timed.pop_exn queue clock in
    decr remaining;
    handler payload
  done;
  if !remaining > 0 && not (Nfp_algo.Heap.Timed.is_empty queue) then clock.now <- deadline

let pending t = Nfp_algo.Heap.Timed.length t.queue

type 'a t = {
  cmp : 'a -> 'a -> int;
  mutable data : 'a array;
  mutable size : int;
}

let create ~cmp = { cmp; data = [||]; size = 0 }

let length h = h.size

let is_empty h = h.size = 0

let grow h x =
  let capacity = Array.length h.data in
  if h.size = capacity then begin
    let capacity' = if capacity = 0 then 16 else capacity * 2 in
    let data' = Array.make capacity' x in
    Array.blit h.data 0 data' 0 h.size;
    h.data <- data'
  end

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if h.cmp h.data.(i) h.data.(parent) < 0 then begin
      let tmp = h.data.(i) in
      h.data.(i) <- h.data.(parent);
      h.data.(parent) <- tmp;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < h.size && h.cmp h.data.(left) h.data.(!smallest) < 0 then
    smallest := left;
  if right < h.size && h.cmp h.data.(right) h.data.(!smallest) < 0 then
    smallest := right;
  if !smallest <> i then begin
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(!smallest);
    h.data.(!smallest) <- tmp;
    sift_down h !smallest
  end

let push h x =
  grow h x;
  h.data.(h.size) <- x;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let peek h = if h.size = 0 then None else Some h.data.(0)

let pop h =
  if h.size = 0 then None
  else begin
    let top = h.data.(0) in
    h.size <- h.size - 1;
    if h.size > 0 then begin
      h.data.(0) <- h.data.(h.size);
      sift_down h 0
    end;
    Some top
  end

let clear h =
  h.data <- [||];
  h.size <- 0

(* Specialized (time, seq)-keyed min-heap for the event queue. The heap
   proper is three parallel unboxed arrays — key time, tie-breaking
   sequence number, and the slot where the element lives — so ordering
   never goes through a closure or a boxed comparison, and a sift moves
   only immediates: no write barrier per level. An element's data and
   its [int] payload sit in slot-indexed arrays, written once by [push];
   the int payload lets an event be a preallocated handler plus an
   argument instead of a fresh closure. The hole-bubbling sifts move one
   entry per level instead of swapping, and are loops in the body of
   [push] and [pop_exn] so the float key stays unboxed throughout: as
   the argument of a recursive function it would be boxed per level. *)
module Timed = struct
  type clock = { mutable now : float }

  type 'a t = {
    mutable times : float array;
    mutable seqs : int array;
    mutable slots : int array;
    mutable data : 'a array;  (* by slot *)
    mutable payloads : int array;  (* by slot *)
    mutable free : int array;  (* stack of unused slots *)
    mutable n_free : int;
    mutable size : int;
  }

  let create () =
    {
      times = [||];
      seqs = [||];
      slots = [||];
      data = [||];
      payloads = [||];
      free = [||];
      n_free = 0;
      size = 0;
    }

  let length h = h.size

  let is_empty h = h.size = 0

  (* Called when every slot is in use, so the new slots are exactly the
     free ones. *)
  let grow h x =
    let capacity = Array.length h.data in
    let capacity' = if capacity = 0 then 16 else capacity * 2 in
    let extend a fill =
      let a' = Array.make capacity' fill in
      Array.blit a 0 a' 0 capacity;
      a'
    in
    h.times <- extend h.times 0.0;
    h.seqs <- extend h.seqs 0;
    h.slots <- extend h.slots 0;
    h.data <- extend h.data x;
    h.payloads <- extend h.payloads 0;
    h.free <- Array.init capacity' (fun k -> capacity' - 1 - k);
    h.n_free <- capacity' - capacity

  let push h ~time ~seq x payload =
    if h.n_free = 0 then grow h x;
    h.n_free <- h.n_free - 1;
    let slot = h.free.(h.n_free) in
    h.data.(slot) <- x;
    h.payloads.(slot) <- payload;
    let times = h.times and seqs = h.seqs and slots = h.slots in
    (* Bubble the hole up from the new tail position. *)
    let i = ref h.size in
    h.size <- h.size + 1;
    let continue = ref true in
    while !continue && !i > 0 do
      let parent = (!i - 1) / 2 in
      let tp = times.(parent) in
      if time < tp || (time = tp && seq < seqs.(parent)) then begin
        times.(!i) <- tp;
        seqs.(!i) <- seqs.(parent);
        slots.(!i) <- slots.(parent);
        i := parent
      end
      else continue := false
    done;
    times.(!i) <- time;
    seqs.(!i) <- seq;
    slots.(!i) <- slot

  let due h limit = h.size > 0 && h.times.(0) <= limit

  let min_payload h =
    if h.size = 0 then invalid_arg "Heap.Timed.min_payload: empty heap";
    h.payloads.(h.slots.(0))

  (* Combined peek-and-pop; the caller checks [is_empty]/[due] first, so
     no option is allocated on the hot path. The popped slot keeps its
     data until a later [push] reuses it, so at most the heap's
     high-water mark of popped elements stays reachable. *)
  let pop_exn h clock =
    if h.size = 0 then invalid_arg "Heap.Timed.pop_exn: empty heap";
    let times = h.times and seqs = h.seqs and slots = h.slots in
    clock.now <- times.(0);
    let top = slots.(0) in
    h.free.(h.n_free) <- top;
    h.n_free <- h.n_free + 1;
    let last = h.size - 1 in
    h.size <- last;
    if last > 0 then begin
      (* Re-seat the tail entry by bubbling the hole down from the root. *)
      let time = times.(last) and seq = seqs.(last) in
      let i = ref 0 and continue = ref true in
      while !continue do
        let left = (2 * !i) + 1 in
        if left >= last then continue := false
        else begin
          let right = left + 1 in
          let child =
            if right < last then begin
              let tl = times.(left) and tr = times.(right) in
              if tr < tl || (tr = tl && seqs.(right) < seqs.(left)) then right else left
            end
            else left
          in
          let tc = times.(child) in
          if tc < time || (tc = time && seqs.(child) < seq) then begin
            times.(!i) <- tc;
            seqs.(!i) <- seqs.(child);
            slots.(!i) <- slots.(child);
            i := child
          end
          else continue := false
        end
      done;
      times.(!i) <- time;
      seqs.(!i) <- seq;
      slots.(!i) <- slots.(last)
    end;
    h.data.(top)

  let clear h =
    h.times <- [||];
    h.seqs <- [||];
    h.slots <- [||];
    h.data <- [||];
    h.payloads <- [||];
    h.free <- [||];
    h.n_free <- 0;
    h.size <- 0
end

(* Two views of one routing table:

   - [bindings], keyed by (masked prefix, length), is the table itself:
     what [add]/[remove] edit and [entries] counts;
   - a sorted interval index, derived from it: the address space cut at
     every prefix's first address and at the address just past its end,
     each piece holding the value of the longest prefix covering it.
     n prefixes make at most 2n+1 pieces, so a lookup is a binary search
     over an unboxed [int array].

   Edits only mark the index dirty; the next lookup rebuilds it. The
   index stores the very [Some v] boxes held by [bindings], so a lookup
   returns a shared option and allocates nothing. *)

module Bindings = Hashtbl.Make (Int)

type 'a t = {
  bindings : 'a option Bindings.t;
  mutable starts : int array;  (* ascending; starts.(0) = 0 *)
  mutable values : 'a option array;  (* values.(i) covers [starts.(i), starts.(i+1)) *)
  mutable dirty : bool;
}

let create () =
  { bindings = Bindings.create 64; starts = [| 0 |]; values = [| None |]; dirty = false }

let check_len len =
  if len < 0 || len > 32 then invalid_arg "Lpm: prefix length must be in [0, 32]"

(* Addresses are unsigned 32-bit values held in a native int. *)
let to_uint addr = Int32.to_int addr land 0xffffffff

let mask len = (0xffffffff lsl (32 - len)) land 0xffffffff

(* A prefix is its masked start address and its length, packed into one
   int key: the start is 32 bits, the length needs 6. *)
let key ~prefix ~len = (to_uint prefix land mask len) lsl 6 lor len

let add t ~prefix ~len v =
  check_len len;
  Bindings.replace t.bindings (key ~prefix ~len) (Some v);
  t.dirty <- true

let remove t ~prefix ~len =
  check_len len;
  let k = key ~prefix ~len in
  if Bindings.mem t.bindings k then begin
    Bindings.remove t.bindings k;
    t.dirty <- true
  end

let entries t = Bindings.length t.bindings

(* Sweep the prefixes in address order, wider before narrower at a
   shared start. Prefixes nest or are disjoint, so the ones covering
   the sweep point form a stack whose top is the longest match. A piece
   starts where a prefix opens (its value) and just past where one
   closes (the value of the prefix below it on the stack). *)
let rebuild t =
  let prefixes =
    Bindings.fold (fun k v acc -> (k lsr 6, k land 63, v) :: acc) t.bindings []
    |> List.sort (fun (s1, l1, _) (s2, l2, _) ->
           if s1 <> s2 then Int.compare s1 s2 else Int.compare l1 l2)
  in
  let cap = (2 * List.length prefixes) + 1 in
  let starts = Array.make cap 0 and values = Array.make cap None in
  let n = ref 1 in
  (* A piece of zero width is overwritten by the next one at the same
     address. *)
  let emit start v =
    if starts.(!n - 1) = start then values.(!n - 1) <- v
    else begin
      starts.(!n) <- start;
      values.(!n) <- v;
      incr n
    end
  in
  let below = function [] -> None | (_, v) :: _ -> v in
  let rec close_until addr stack =
    match stack with
    | (last, _) :: rest when last < addr ->
        if last < 0xffffffff then emit (last + 1) (below rest);
        close_until addr rest
    | _ -> stack
  in
  let stack =
    List.fold_left
      (fun stack (start, len, v) ->
        let stack = close_until start stack in
        emit start v;
        (start + (1 lsl (32 - len)) - 1, v) :: stack)
      [] prefixes
  in
  ignore (close_until (0xffffffff + 1) stack);
  t.starts <- Array.sub starts 0 !n;
  t.values <- Array.sub values 0 !n;
  t.dirty <- false

(* The last piece starting at or before [addr]. *)
let lookup_int t addr =
  if t.dirty then rebuild t;
  let starts = t.starts in
  let lo = ref 0 and hi = ref (Array.length starts - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) lsr 1 in
    if Array.unsafe_get starts mid <= addr then lo := mid else hi := mid - 1
  done;
  t.values.(!lo)

let lookup t addr = lookup_int t (to_uint addr)

(* SplitMix64 as a straight Int64 chain.

   The state and the mixed output of the last step live in one 16-byte
   buffer (state at offset 0, output at offset 8), read and written
   with [Bytes.get_int64_le]/[set_int64_le]. The compiler keeps the
   [int64] intermediates of [step] unboxed, and storing the output
   rather than returning it keeps [float] — the simulator's hottest
   draw (service jitter, synthesized payload bytes) — allocation-free
   too. *)

type t = Bytes.t

let golden = 0x9e3779b97f4a7c15L
let c1 = 0xbf58476d1ce4e5b9L
let c2 = 0x94d049bb133111ebL

let create ~seed =
  let t = Bytes.make 16 '\000' in
  Bytes.set_int64_le t 0 seed;
  t

(* Advance the state and mix; the result lands at offset 8. *)
let step t =
  let z = Int64.add (Bytes.get_int64_le t 0) golden in
  Bytes.set_int64_le t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) c1 in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) c2 in
  Bytes.set_int64_le t 8 (Int64.logxor z (Int64.shift_right_logical z 31))

let next t =
  step t;
  Bytes.get_int64_le t 8

(* 2^-53 is a power of two, so multiplying by it is the exact scaling
   dividing by 2^53 performs — same result, no division unit. *)
let inv_2_53 = 1.0 /. 9007199254740992.0

let float t =
  step t;
  (* Top 53 bits -> [0, 1); a 53-bit value fits a native int, so the
     conversion is exact. *)
  float_of_int (Int64.to_int (Int64.shift_right_logical (Bytes.get_int64_le t 8) 11))
  *. inv_2_53

let int t ~bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  int_of_float (float t *. float_of_int bound)

let exponential t ~mean =
  if mean <= 0.0 then invalid_arg "Prng.exponential: mean must be positive";
  let u = float t in
  (* u = 0 would give infinity; nudge. *)
  -.mean *. log (1.0 -. (u *. 0.9999999999))

let split t = create ~seed:(next t)

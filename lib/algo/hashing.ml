let fnv_offset = 0x811c9dc5
let fnv_prime = 0x01000193

let fnv1a32 s =
  let h = ref fnv_offset in
  String.iter (fun c -> h := (!h lxor Char.code c) * fnv_prime land 0xffffffff) s;
  !h

let fnv1a32_bytes b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Hashing.fnv1a32_bytes: range overruns buffer";
  let h = ref fnv_offset in
  for i = pos to pos + len - 1 do
    h := (!h lxor Char.code (Bytes.get b i)) * fnv_prime land 0xffffffff
  done;
  !h

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let combine a b = ((a * 31) + b) land max_int

(* The 104-bit 5-tuple packs exactly into two limbs; both fit a 63-bit
   native int, so packing is allocation-free. *)
let pack_a sip sport proto =
  ((Int32.to_int sip land 0xffffffff) lsl 24) lor (sport lsl 8) lor proto

let pack_b dip dport = ((Int32.to_int dip land 0xffffffff) lsl 16) lor dport

(* Same limbs from addresses already held as unsigned native ints
   (e.g. [Packet.sip_int]) — skips the int32 detour entirely. *)
let pack_a_int sip sport proto = (sip lsl 24) lor (sport lsl 8) lor proto
let pack_b_int dip dport = (dip lsl 16) lor dport

let tuple5_64 sip dip sport dport proto =
  mix64
    (Int64.logxor
       (mix64 (Int64.of_int (pack_a sip sport proto)))
       (Int64.of_int (pack_b dip dport)))

let tuple5 sip dip sport dport proto =
  Int64.to_int (tuple5_64 sip dip sport dport proto) land max_int

(* [mix2_int a b] = [Int64.to_int (mix64 (mix64 a' ^ b'))] for the
   packed key limbs [a]/[b] — the value [tuple5_64] computes — with
   [mix64] written out, so every intermediate is a let-bound [int64]
   inside one function: the compiler keeps those unboxed, and only a
   call boundary would box one. The microflow cache hashes with this on
   the classifier's per-packet hit path. *)
let mix2_int a b =
  let z = Int64.of_int a in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  let z = Int64.logxor z (Int64.of_int b) in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.to_int (Int64.logxor z (Int64.shift_right_logical z 31))

(* RSS shard selection draws from its own hash stream: the key limbs
   are offset by fixed seeds before entering the SplitMix64 finaliser
   chain, so for any 5-tuple the shard hash and the microflow-cache
   bucket hash ([mix2_int] unseeded, see [Flow_table.slot_of_packed])
   are samples of two unrelated avalanche streams. Without the seeds a
   replica choice of [h mod n] and a bucket choice of [h land mask]
   would be functions of the same value — e.g. every flow in one cache
   bucket landing on the same replica. The constants are the first
   Blowfish pi digits (arbitrary, odd-ish, and 62-bit safe). *)
let rss_seed_a = 0x243f6a8885a308d3
let rss_seed_b = 0x13198a2e03707344

(* [mix2_int] keeps 63 bits, so its top bit is the OCaml int sign bit;
   mask it off — shard selection is [h mod n], which must never see a
   negative hash. *)
let rss2_int a b = mix2_int (a lxor rss_seed_a) (b lxor rss_seed_b) land max_int

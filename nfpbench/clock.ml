(* Host clock and allocation counter for the benchmark's timed windows.

   [now_ns] reads CLOCK_MONOTONIC through bechamel's stub directly, so
   that a timestamp is an unboxed int and reading it allocates nothing
   inside a measured span. *)

external clock_linux_get_time : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now_ns () = Int64.to_int (clock_linux_get_time ())

(* Minor-heap words allocated by this domain so far, as an int. *)
let minor_words () = int_of_float (Gc.minor_words ())

let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9

(* Cost of one empty [now_ns] pair, subtracted from per-call spans that
   are only a few tens of nanoseconds long. The minimum over many
   trials is the clock's own floor. *)
let overhead_ns =
  lazy
    (let best = ref max_int in
     for _ = 1 to 2000 do
       let t0 = now_ns () in
       let t1 = now_ns () in
       if t1 - t0 < !best then best := t1 - t0
     done;
     !best)

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Host-speed calibration. The host's speed drifts by up to 2x over tens
   of seconds (contention from other tenants of the machine), far more
   than any change worth measuring. Every host timing is therefore taken
   between two runs of a fixed kernel that uses no repository code —
   hash-table churn, small allocations and a dependent array walk, the
   same mix of work as the simulator — and expressed at the speed of a
   reference host on which the kernel takes [reference_ns]. *)
let calibration_table = Array.init 65536 (fun i -> (i * 7919) land 65535)

let kernel () =
  let h = Hashtbl.create 4096 in
  let x = ref 0 in
  for i = 0 to 100_000 do
    x := calibration_table.(!x lxor (i land 1023));
    Hashtbl.replace h (i land 8191) (Some (i, !x));
    if i land 3 = 0 then ignore (Sys.opaque_identity (Hashtbl.find_opt h ((i * 31) land 8191)))
  done;
  !x

(* Set-up is different work: a deployment allocates megabytes of rings
   and tables, so its time goes to filling large blocks and to the
   collections they trigger, which [kernel] does not track (rescaled by
   it, set-up times spread more across processes than raw ones). This
   kernel allocates 64 KB blocks straight into the major heap, 30 of
   them live at a time, and calibrates set-up timings. *)
let alloc_kernel () =
  let live = Array.make 30 [||] in
  for i = 0 to 299 do
    live.(i mod 30) <- Array.make 8192 i
  done;
  Array.length (Sys.opaque_identity live)

let calibration_ns kernel =
  let t0 = now_ns () in
  ignore (Sys.opaque_identity (kernel ()));
  now_ns () - t0

let reference_ns = 10_000_000.0

(* [f ()] between two runs of [kernel], and the host's slowdown against
   the reference meanwhile: a rate measured over [f] times the slowdown,
   or a time divided by it, is the figure at reference speed. *)
let calibrated ?(kernel = kernel) f =
  let c0 = calibration_ns kernel in
  let r = f () in
  let c1 = calibration_ns kernel in
  (r, float_of_int (c0 + c1) /. 2.0 /. reference_ns)

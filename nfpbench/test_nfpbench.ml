(* The benchmark's own tests: a short smoke run of each workload in both
   modes, metric names that the result format accepts and that match
   BENCHMARK.json, and a fixed seed giving identical modeled metrics and
   model digest across two runs. *)

open Nfpbench

let check = Alcotest.check

(* Small enough to keep the suite quick, large enough that the armed
   workload's crash storm, surge and migrations all happen. *)
let packets = 4000

let run ?(seed = 1) ~trace name =
  Measure.run ~packets ~name ~seed ~seconds:0.05 ~trace ()

let modeled = [ "model_knee_mpps"; "model_goodput_mpps"; "model_p50_us"; "model_p99_us" ]

let metric_names ms = List.map (fun (n, _, _) -> n) ms

(* The "name" fields of one section of BENCHMARK.json: the file is a
   flat list of one-line entries per section, in this order. *)
let benchmark_names section =
  let text = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  let sections = [ "\"workloads\""; "\"end_to_end\""; "\"per_layer\"" ] in
  let find_from s sub from =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length s then None
      else if String.sub s i n = sub then Some i
      else go (i + 1)
    in
    go from
  in
  let start = Option.get (find_from text ("\"" ^ section ^ "\"") 0) in
  let stop =
    List.fold_left
      (fun acc sec ->
        match find_from text sec (start + 1) with
        | Some i when i > start -> min acc i
        | _ -> acc)
      (String.length text) sections
  in
  let body = String.sub text start (stop - start) in
  let key = "\"name\": \"" in
  let rec names from acc =
    match find_from body key from with
    | None -> List.rev acc
    | Some i ->
        let s = i + String.length key in
        let e = String.index_from body s '"' in
        names e (String.sub body s (e - s) :: acc)
  in
  names 0 []

let smoke name =
  Alcotest.test_case name `Quick (fun () ->
      let o = run ~trace:false name in
      check Alcotest.bool "correct" true o.correct;
      check Alcotest.int "failed" 0 o.failed;
      check Alcotest.int "attempted" (packets * Workload.subruns name) o.attempted;
      check
        Alcotest.(list string)
        "end-to-end metrics are BENCHMARK.json's" (benchmark_names "end_to_end")
        (metric_names o.end_to_end);
      List.iter
        (fun (n, v, _) ->
          check Alcotest.bool (n ^ " is positive") true (Float.is_finite v && v > 0.0))
        o.end_to_end;
      let t = run ~trace:true name in
      check Alcotest.bool "traced run correct" true t.correct;
      check
        Alcotest.(list string)
        "per-layer metrics are BENCHMARK.json's" (benchmark_names "per_layer")
        (metric_names t.per_layer);
      check Alcotest.string "traced digest = untraced digest" o.digest t.digest)

let names_valid () =
  let all =
    benchmark_names "workloads" @ benchmark_names "end_to_end" @ benchmark_names "per_layer"
  in
  check Alcotest.(list string) "workloads" Workload.names (benchmark_names "workloads");
  List.iter
    (fun n -> check Alcotest.bool (n ^ " matches [A-Za-z0-9_.-]+") true (Report.valid_name n))
    all;
  check Alcotest.int "names are unique" (List.length all)
    (List.length (List.sort_uniq compare all))

let deterministic name =
  Alcotest.test_case name `Quick (fun () ->
      let a = run ~seed:7 ~trace:false name and b = run ~seed:7 ~trace:false name in
      check Alcotest.string "model_digest" a.digest b.digest;
      let pick o = List.filter (fun (n, _, _) -> List.mem n modeled) o.Measure.end_to_end in
      List.iter2
        (fun (n, x, _) (_, y, _) ->
          check Alcotest.int64 n (Int64.bits_of_float x) (Int64.bits_of_float y))
        (pick a) (pick b);
      let c = run ~seed:8 ~trace:false name in
      check Alcotest.bool "another seed, another digest" true (c.digest <> a.digest))

(* Spans allocate nothing: an NF body that allocates nothing reports 0
   words per call. *)
let span_allocates_nothing () =
  let nf = Option.get (Nfp_nf.Registry.instantiate "Forwarder" ~name:"quiet") in
  let quiet = { nf with process = (fun _ -> Nfp_nf.Nf.Forward); cost_cycles = (fun _ -> 100) } in
  let tr = Layers.tracer () in
  let traced = Layers.wrap_nf tr quiet in
  let p = (Workload.make ~packets:1 ~seed:1 "fwd5_64B").generate 0 in
  for _ = 1 to 10_000 do
    ignore (Sys.opaque_identity (traced.process p));
    ignore (Sys.opaque_identity (traced.cost_cycles p))
  done;
  let a = Hashtbl.find tr.by_kind "Forwarder" in
  check Alcotest.int "calls" 10_000 a.calls;
  check Alcotest.int "spans" 20_000 a.spans;
  check Alcotest.int "words in spans" 0 a.words;
  check (Alcotest.float 0.0) "words per call, tracing cost removed" 0.0
    (Layers.self_words a /. float_of_int a.calls)

let () =
  Alcotest.run "nfpbench"
    [
      ("smoke", List.map smoke Workload.names);
      ("names", [ Alcotest.test_case "metric names" `Quick names_valid ]);
      ("tracer", [ Alcotest.test_case "spans allocate nothing" `Quick span_allocates_nothing ]);
      ("determinism", List.map deterministic Workload.names);
    ]

(* The benchmark command. Run it through nfpbench/run.sh, which builds
   this executable from source first:

     nfpbench/run.sh --workload fwd5_64B --seed 1 --seconds 12 --trace 0

   --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
   ledger; both run the correctness check. The last line of standard
   output is the result as one JSON object. *)

open Nfpbench

let usage =
  "main.exe --workload (" ^ String.concat "|" Workload.names
  ^ ") --seed N --seconds S --trace (0|1)"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "workload name");
      ("--seed", Arg.Set_int seed, "seed of the workload's inputs");
      ("--seconds", Arg.Set_float seconds, "length of the timed window");
      ("--trace", Arg.Set_int trace, "1 = traced run printing the per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if (not (List.mem !workload Workload.names)) || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let trace = !trace = 1 in
  let commit = Option.value (Sys.getenv_opt "NFPBENCH_COMMIT") ~default:"unknown" in
  print_endline
    (Report.provenance ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace ~commit);
  let o = Measure.run ~name:!workload ~seed:!seed ~seconds:!seconds ~trace () in
  List.iter print_endline o.notes;
  List.iter (fun m -> print_endline (Report.metric_line m)) (o.end_to_end @ o.per_layer);
  print_endline (Report.json o)

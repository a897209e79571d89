(* Output: provenance and metric lines for a reader, then the result as
   one JSON object on the last line. *)

let valid_name s =
  s <> ""
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

(* Shortest decimal that reads back as the same float: every digit
   measured, nothing invented. *)
let number x =
  if not (Float.is_finite x) then invalid_arg "Report.number: not a finite value";
  let s = Printf.sprintf "%.15g" x in
  if float_of_string s = x then s else Printf.sprintf "%.17g" x

let provenance ~workload ~seed ~seconds ~trace ~commit =
  Printf.sprintf "provenance workload=%s seed=%d seconds=%g trace=%d commit=%s nproc=%d ocaml=%s"
    workload seed seconds (if trace then 1 else 0) commit
    (Domain.recommended_domain_count ())
    Sys.ocaml_version

let metric_line (name, value, unit) = Printf.sprintf "metric %s %s %s" name (number value) unit

let json (o : Measure.outcome) =
  let metrics = o.end_to_end @ o.per_layer in
  let fields =
    List.map
      (fun (name, value, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number value) unit)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    o.correct o.attempted o.failed (String.concat ", " fields)

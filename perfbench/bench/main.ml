(* perfbench: the streamsched benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload as a closed loop for S seconds of op time and
   prints a table of metrics, then, as the last line, one JSON object
   {correct, attempted, failed, metrics}.  --trace 0 gives the end-to-end
   metrics, --trace 1 the per-layer breakdown.  Exits 0 when it printed a
   result, 2 on a usage error. *)

open Pb_workload

let workloads =
  [ Pb_paper_sweep.workload; Pb_open_traffic.workload; Pb_crash_estimate.workload ]

let usage () =
  prerr_endline
    "usage: main.exe --workload (paper-sweep|open-traffic|crash-estimate) --seed N \
     --seconds S --trace (0|1)";
  exit 2

let parse_args () =
  let rec go acc = function
    | [] -> acc
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        go ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | _ -> usage ()
  in
  let args = go [] (List.tl (Array.to_list Sys.argv)) in
  let get key conv =
    match List.assoc_opt key args with
    | None -> usage ()
    | Some v -> ( match conv v with Some x -> x | None -> usage ())
  in
  let workload =
    get "workload" (fun name -> List.find_opt (fun (w : Pb_workload.t) -> w.name = name) workloads)
  in
  let seed = get "seed" int_of_string_opt in
  let seconds = get "seconds" float_of_string_opt in
  let trace = get "trace" (function "0" -> Some false | "1" -> Some true | _ -> None) in
  if seconds <= 0.0 then usage ();
  (workload, seed, seconds, trace)

(* The git revision of the checkout, read from .git without running git;
   "unknown" outside a git work tree. *)
let git_revision () =
  let read path =
    try
      let ic = open_in path in
      let line = input_line ic in
      close_in ic;
      Some (String.trim line)
    with Sys_error _ | End_of_file -> None
  in
  let packed name =
    try
      let ic = open_in ".git/packed-refs" in
      let rec scan () =
        match input_line ic with
        | line -> (
            match String.split_on_char ' ' line with
            | [ sha; r ] when r = name -> Some sha
            | _ -> scan ())
        | exception End_of_file -> None
      in
      let r = scan () in
      close_in ic;
      r
    with Sys_error _ -> None
  in
  match read ".git/HEAD" with
  | None -> "unknown"
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
      let name = String.sub head 5 (String.length head - 5) in
      match read (Filename.concat ".git" name) with
      | Some sha -> sha
      | None -> Option.value ~default:"unknown" (packed name))
  | Some sha -> sha

let fingerprint () =
  Printf.sprintf "nproc=%s domains=%d ocaml=%s rev=%s"
    (Option.value ~default:"unknown" (Sys.getenv_opt "PERFBENCH_NPROC"))
    (Domain.recommended_domain_count ())
    Sys.ocaml_version (git_revision ())

let json_line ~correct ~(tally : Pb_harness.tally) metrics =
  let open Obs.Json in
  to_string
    (Obj
       [
         ("correct", Bool correct);
         ("attempted", Num (float_of_int tally.attempted));
         ("failed", Num (float_of_int tally.failed));
         ( "metrics",
           Obj
             (List.map
                (fun (m : metric) ->
                  (* a metric that could not be measured prints as null, and
                     makes the run incorrect *)
                  let value = if Float.is_finite m.value then Num m.value else Null in
                  (m.name, Obj [ ("value", value); ("unit", Str m.unit_) ]))
                metrics) );
       ])

(* The result guard: every workload's fixed inputs, checked against their
   pinned digests, on every run.  Each reference output counts as one
   attempted op; each mismatch as one failed op. *)
let references tally () =
  List.map
    (fun (w : Pb_workload.t) ->
      let r = w.reference () in
      let bad =
        if r.digest = r.pinned then r.failures
        else Printf.sprintf "result digest %s, pinned %s" r.digest r.pinned :: r.failures
      in
      for k = 0 to max r.ops (List.length bad) - 1 do
        Pb_harness.record tally ~what:(w.name ^ " reference") (List.nth_opt bad k)
      done;
      Printf.printf "reference %-15s digest %s %s\n" w.name r.digest
        (if bad = [] then "ok" else "MISMATCH");
      r)
    workloads

let () =
  let w, seed, seconds, trace = parse_args () in
  let tally = Pb_harness.tally () in
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%d\nhost %s\n%!" w.name seed seconds
    (if trace then 1 else 0) (fingerprint ());
  let metrics, samples, notes =
    if trace then (Pb_harness.traced w tally ~seed ~seconds, [], [])
    else
      let r = Pb_harness.end_to_end w tally ~seed ~seconds ~references:(references tally) in
      (r.metrics, r.samples, r.raw_notes)
  in
  List.iter
    (fun (m : metric) ->
      let n =
        match List.assoc_opt m.name samples with
        | Some n -> Printf.sprintf "n=%d" n
        | None -> ""
      in
      Printf.printf "  %-20s %14.6g %-6s %s\n" m.name m.value m.unit_ n)
    metrics;
  List.iter (Printf.printf "  %s\n") notes;
  Printf.printf "ops attempted=%d failed=%d\n" tally.attempted tally.failed;
  List.iter (Printf.printf "  failure: %s\n") (List.rev tally.errors);
  let correct = tally.failed = 0 && List.for_all (fun (m : metric) -> Float.is_finite m.value) metrics in
  print_endline (json_line ~correct ~tally metrics)

(* The benchmark's command line:

     bench.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>

   With --trace 0 it sets the workload up three times (reporting the
   median set-up time) and measures the end-to-end metrics with tracing
   off; with --trace 1 it sets up once and measures the per-layer
   metrics, writing the benchmark's own spans to
   perfbench/_out/<workload>-<seed>.trace.json.  Human-readable lines come
   first; the last line of stdout is the JSON result. *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload <train-kdd|train-graph|serve-higgs|train-dist> \
     --seed <n> --seconds <s> --trace <0|1>";
  exit 2

let parse argv =
  let rec go acc = function
    | [] -> acc
    | key :: value :: rest when String.starts_with ~prefix:"--" key ->
        go ((key, value) :: acc) rest
    | _ -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list argv)) in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let workload =
    match List.find_opt (fun w -> w.Work.name = get "--workload") Work.all with
    | Some w -> w
    | None -> usage ()
  in
  let trace =
    match get "--trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  let seconds = int "--seconds" in
  if seconds < 1 then usage ();
  (workload, int "--seed", float_of_int seconds, trace)

let () =
  (* dist workers are re-executions of this binary *)
  Kf_dist.Worker.maybe_run ();
  let w, seed, seconds, trace = parse Sys.argv in
  let nproc = max 1 (min 8 (Domain.recommended_domain_count ())) in
  Unix.putenv "KF_DOMAINS" (string_of_int nproc);
  let out = Report.create () in
  Report.note "workload %s, seed %d, %.0f s, trace %b" w.Work.name seed seconds trace;
  Report.note "machine: %s" (Machine.label ~nproc);
  (match
     if trace then begin
       Spans.on := true;
       Work.traced w ~seed ~nproc out;
       (match Machine.bandwidth_gbps () with
       | Ok gbps -> Report.note "machine.bw_gbps %.2f GB/s" gbps
       | Error why -> Report.note "machine.bw_gbps omitted: %s" why);
       let dir = Filename.concat "perfbench" "_out" in
       if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
       Spans.write
         (Filename.concat dir (Printf.sprintf "%s-%d.trace.json" w.Work.name seed))
     end
     else Work.e2e w ~seed ~nproc ~seconds out
   with
  | () -> ()
  | exception e ->
      Printf.eprintf "perfbench: %s failed: %s\n%!" w.Work.name (Printexc.to_string e);
      exit 1);
  Report.note "fail_frac %.6f (%d failed of %d attempted)" (Report.fail_frac out)
    out.failed out.attempted;
  print_endline (Report.result_line out)

(* Metric collection and the result line.  Every metric is printed as a
   human-readable line on stdout as it is measured; the last line of
   stdout is one JSON object: correct, attempted, failed and the metrics by
   name with their units. *)

type t = {
  mutable metrics : (string * float * string) list;  (** newest first *)
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int;  (** failures that are wrong outputs, not sheds *)
}

let create () = { metrics = []; attempted = 0; failed = 0; wrong = 0 }

let add t name unit v =
  if not (Float.is_finite v) then
    failwith (Printf.sprintf "metric %s is not finite (%g)" name v);
  if List.exists (fun (n, _, _) -> n = name) t.metrics then
    failwith ("metric reported twice: " ^ name);
  t.metrics <- (name, v, unit) :: t.metrics;
  Printf.printf "  %-34s %14.6g %s\n%!" name v unit

let note fmt = Printf.ksprintf (fun s -> Printf.printf "# %s\n%!" s) fmt

(* [failed] counts every failed operation (a shed request included);
   [wrong] the subset whose output was wrong, which makes the run
   incorrect. *)
let tally t ~attempted ~failed ~wrong =
  t.attempted <- t.attempted + attempted;
  t.failed <- t.failed + failed;
  t.wrong <- t.wrong + wrong

let fail_frac t =
  if t.attempted = 0 then 0.0
  else float_of_int t.failed /. float_of_int t.attempted

(* VmHWM of this process, in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec loop () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> loop ()
        | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
      in
      loop ())

let json_string s = Printf.sprintf "%S" s

let result_line t =
  let metrics =
    List.rev_map
      (fun (name, v, unit) ->
        Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}" (json_string name)
          v (json_string unit))
      t.metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (t.wrong = 0) t.attempted t.failed
    (String.concat ", " metrics)

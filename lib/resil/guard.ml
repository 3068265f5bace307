exception Unhealthy of { point : string; index : int; value : float }

let checks = Kf_obs.Counter.make "resil.guard_checks"
let trips = Kf_obs.Counter.make "resil.guard_trips"

let flag =
  ref
    (match Sys.getenv_opt "KF_GUARDS" with
    | Some ("0" | "off" | "false" | "no") -> false
    | _ -> true)

let enabled () = !flag
let set_enabled b = flag := b

let with_enabled b f =
  let saved = !flag in
  flag := b;
  Fun.protect ~finally:(fun () -> flag := saved) f

let first_bad v =
  let n = Array.length v in
  let rec go i =
    if i >= n then None
    else if Float.is_finite v.(i) then go (i + 1)
    else Some i
  in
  go 0

let healthy v = first_bad v = None

let report ~point v first =
  Kf_obs.Counter.incr checks;
  match first with
  | None -> ()
  | Some i ->
      Kf_obs.Counter.incr trips;
      Kf_obs.Trace.instant "guard.trip"
        ~args:
          [
            ("point", point);
            ("index", string_of_int i);
            ("value", string_of_float v.(i));
          ];
      raise (Unhealthy { point; index = i; value = v.(i) })

let check_vec ~point v = if !flag then report ~point v (first_bad v)

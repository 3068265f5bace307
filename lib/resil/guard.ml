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

(* [x -. x] is 0 for every finite [x] and NaN otherwise: one subtract
   and compare per element, no classification call. *)
let first_non_finite (v : float array) ~lo ~hi =
  if lo < 0 || hi > Array.length v then
    invalid_arg "Guard.first_non_finite: range outside the vector";
  let i = ref lo in
  while !i < hi && (let x = Array.unsafe_get v !i in x -. x = 0.0) do
    incr i
  done;
  if !i < hi then !i else -1

let healthy v = first_non_finite v ~lo:0 ~hi:(Array.length v) < 0

let report ~point v i =
  Kf_obs.Counter.incr checks;
  if i >= 0 then begin
    Kf_obs.Counter.incr trips;
    Kf_obs.Trace.instant "guard.trip"
      ~args:
        [
          ("point", point);
          ("index", string_of_int i);
          ("value", string_of_float v.(i));
        ];
    raise (Unhealthy { point; index = i; value = v.(i) })
  end

let check_vec ~point v =
  if !flag then report ~point v (first_non_finite v ~lo:0 ~hi:(Array.length v))

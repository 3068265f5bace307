(* Monotonic clock: CLOCK_MONOTONIC in nanoseconds, through bechamel's
   stub.  Unlike [Kf_obs.Clock] (gettimeofday, 1 us tick, can step) it
   never jumps, so short intervals and their differences are exact. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let time_ns f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

let us ns = float_of_int ns /. 1e3

let ms ns = float_of_int ns /. 1e6

let s ns = float_of_int ns /. 1e9

(* Median per-call time in microseconds of a call too short to time on
   its own: [rounds] batches of [reps] back-to-back calls each. *)
let per_call_us ?(rounds = 11) ~reps f =
  Sample.median
    (Array.init rounds (fun _ ->
         let t0 = now_ns () in
         for _ = 1 to reps do
           ignore (Sys.opaque_identity (f ()))
         done;
         us (now_ns () - t0) /. float_of_int reps))

let time_us f =
  let _, ns = time_ns f in
  us ns

(* Rounds for an operation costing about [est_us], so a measurement spends
   about [budget_s]: at least 5 and at most 61. *)
let rounds ~budget_s ~est_us =
  max 5 (min 61 (int_of_float (budget_s *. 1e6 /. Float.max 1.0 est_us)))

(* Median wall time in microseconds of one call of [f], over rounds worth
   about [budget_s], after one unmeasured call. *)
let median_us ~budget_s f =
  ignore (f ());
  let n = rounds ~budget_s ~est_us:(time_us f) in
  Sample.median (Array.init n (fun _ -> time_us f))

(* Interleaved A/B: each round times [a] then [b]; returns the medians of
   each and the median of the per-round differences [a - b]. *)
let interleaved ~budget_s a b =
  ignore (a ());
  ignore (b ());
  let n = rounds ~budget_s ~est_us:(time_us a +. time_us b) in
  let ta = Array.make n 0.0 and tb = Array.make n 0.0 in
  for i = 0 to n - 1 do
    ta.(i) <- time_us a;
    tb.(i) <- time_us b
  done;
  (Sample.median ta, Sample.median tb, Sample.median (Array.map2 ( -. ) ta tb))

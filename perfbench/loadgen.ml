(* Open-loop load generator for one [Kf_serve.Service].

   Request [k] is due at [t0 + k / rate] whatever happened to earlier
   requests: one sender thread submits on that schedule, one collector
   thread awaits the tickets in order and stamps each resolution.  So
   a stall in the service makes later requests wait, and that wait is
   counted, because latency runs from the due time, not the submit
   time.  The sender's own lateness (submit time minus due time) is
   kept too, so a generator that fell behind shows instead of passing
   for a fast service.  Both threads live in the calling domain. *)

module Service = Kf_serve.Service

type status = Scored | Shed | Failed | Wrong

(* Everything is kept per request, in schedule order. *)
type result = {
  rate : float;  (** offered requests per second *)
  due_ns : int array;
  sent_ns : int array;
  done_ns : int array;  (** resolution; meaningful for [Scored] and [Wrong] *)
  status : status array;
  outstanding : int array;  (** requests submitted but unresolved at submit *)
  window_us : int array;  (** coalescing window in force at submit *)
}

let score_tolerance = 1e-9

let run ?(stall = fun (_ : int) -> ()) svc ~rows ~expect ~rate ~seconds =
  if rate <= 0.0 || seconds <= 0.0 then invalid_arg "Loadgen.run";
  let n = max 1 (int_of_float (rate *. seconds)) in
  let nrows = Array.length rows in
  let tickets = Array.make n None in
  let sent_ns = Array.make n 0 in
  let done_ns = Array.make n 0 in
  let outcomes = Array.make n None in
  let outstanding = Array.make n 0 in
  let window_us = Array.make n 0 in
  let mu = Mutex.create () and cv = Condition.create () in
  let submitted = ref 0 in
  let resolved = Atomic.make 0 in
  (* leave the previous step's garbage out of this one *)
  Gc.full_major ();
  let t0 = Mono.now_ns () + 1_000_000 in
  let period = 1e9 /. rate in
  let due_ns = Array.init n (fun k -> t0 + int_of_float (float_of_int k *. period)) in
  let sender () =
    for k = 0 to n - 1 do
      stall k;
      let gap = due_ns.(k) - Mono.now_ns () in
      if gap > 0 then Unix.sleepf (float_of_int gap /. 1e9);
      sent_ns.(k) <- Mono.now_ns ();
      tickets.(k) <- Service.submit svc rows.(k mod nrows);
      outstanding.(k) <- k - Atomic.get resolved;
      window_us.(k) <- Service.current_window_us svc;
      Mutex.lock mu;
      submitted := k + 1;
      Condition.signal cv;
      Mutex.unlock mu
    done
  in
  let collector () =
    for k = 0 to n - 1 do
      Mutex.lock mu;
      while !submitted <= k do
        Condition.wait cv mu
      done;
      Mutex.unlock mu;
      (match tickets.(k) with
      | None -> ()
      | Some tk ->
          outcomes.(k) <- Some (Service.await tk);
          done_ns.(k) <- Mono.now_ns ());
      Atomic.incr resolved
    done
  in
  let ts = Thread.create sender () in
  let tc = Thread.create collector () in
  Thread.join ts;
  Thread.join tc;
  (* the score checks run after the schedule, outside the timed window *)
  let status =
    Array.init n (fun k ->
        match outcomes.(k) with
        | None -> Shed
        | Some (Service.Failed _) -> Failed
        | Some (Service.Score s) ->
            if Float.abs (s -. expect.(k mod nrows)) <= score_tolerance then
              Scored
            else Wrong)
  in
  { rate; due_ns; sent_ns; done_ns; status; outstanding; window_us }

(* ---- statistics ---- *)

let sent r = Array.length r.status

let count r p = Array.fold_left (fun c s -> if p s then c + 1 else c) 0 r.status

let shed r = count r (( = ) Shed)

let failed r = count r (( = ) Failed)

let wrong r = count r (( = ) Wrong)

let resolved = function Scored | Wrong -> true | Shed | Failed -> false

(* [f k] over the resolved requests [k] of the slice [lo, hi), in
   microseconds *)
let resolved_us r (lo, hi) f =
  let acc = ref [] in
  for k = hi - 1 downto lo do
    if resolved r.status.(k) then acc := Mono.us (f k) :: !acc
  done;
  Array.of_list !acc

let whole r = (0, sent r)

(* due time to resolution *)
let latency_us r slice = resolved_us r slice (fun k -> r.done_ns.(k) - r.due_ns.(k))

(* submit time to resolution: the service's share *)
let service_us r slice = resolved_us r slice (fun k -> r.done_ns.(k) - r.sent_ns.(k))

let late_us r = Array.init (sent r) (fun k -> Mono.us (r.sent_ns.(k) - r.due_ns.(k)))

let mean_window_us r =
  float_of_int (Array.fold_left ( + ) 0 r.window_us) /. float_of_int (sent r)

(* The rate the sender actually submitted at. *)
let achieved r =
  let n = sent r in
  if n < 2 then r.rate
  else float_of_int (n - 1) /. Mono.s (r.sent_ns.(n - 1) - r.sent_ns.(0))

(* Mean outstanding requests over the last quarter of the schedule minus
   that over its second quarter. *)
let backlog_growth r =
  let n = sent r in
  let mean q =
    let a = q * n / 4 and b = (q + 1) * n / 4 in
    let sum = ref 0 in
    for k = a to b - 1 do
      sum := !sum + r.outstanding.(k)
    done;
    float_of_int !sum /. float_of_int (max 1 (b - a))
  in
  mean 3 -. mean 1

(* ---- the judgements ---- *)

let p99_limit_us = 1000.0

let late_limit_us = 500.0

(* Percentiles are taken per window of [windows] consecutive slices of
   the schedule, and the median over the windows is reported, so that one
   slow stretch of a shared machine moves a result less than one
   percentile over the whole schedule does.  Schedules shorter than
   [100 * windows] requests form one window. *)
let windows = 10

let slices r =
  let n = sent r in
  let w = if n < 100 * windows then 1 else windows in
  List.init w (fun i -> (i * n / w, (i + 1) * n / w))

(* Median over windows of the [q] quantile of [f r] (latencies of a
   slice). *)
let windowed r f q =
  Sample.median
    (Array.of_list
       (List.map
          (fun slice ->
            let xs = f r slice in
            if Array.length xs = 0 then infinity else Sample.quantile xs q)
          (slices r)))

(* p99 latency from the due time, median over windows *)
let p99 r = windowed r latency_us 0.99

(* The generator fell behind its schedule: its p99 lateness is beyond
   [late_limit_us]. *)
let late r = Sample.quantile (late_us r) 0.99 > late_limit_us

(* The queue is growing when the mean outstanding count rose by more than
   a full batch plus 1% of the requests over the schedule. *)
let growing r = backlog_growth r > 32.0 +. (0.01 *. float_of_int (sent r))

(* A rate is sustained when the sender delivered it (within 2%), the
   service's own p99 latency (submit to resolution, median over windows)
   is within [p99_limit_us], the backlog does not grow, and shed plus
   failed plus wrong stay within 0.1% of the requests.  The generator's
   lateness is left out of this test: on a shared machine its wake-ups
   are late by milliseconds at times, whatever the service does.  The
   latencies reported at the fixed rates do include it. *)
let sustained r =
  achieved r >= 0.98 *. r.rate
  && windowed r service_us 0.99 <= p99_limit_us
  && (not (growing r))
  && float_of_int (count r (fun s -> s <> Scored)) <= 0.001 *. float_of_int (sent r)

(* Rate ladder for the capacity search: geometric steps of 5%, finer than
   the bound on the capacity metric. *)
let ladder ~lo ~hi =
  let rec go acc r = if r > hi then List.rev acc else go (r :: acc) (r *. 1.05) in
  Array.of_list (go [] lo)

(* Highest sustained rung of [ladder], by bisection over the whole ladder,
   taking everything below a sustained probe as sustained and everything
   above a failed one as not.  The first probe is the middle rung, so the
   lowest rungs, where every request wakes the service from sleep and a
   busy machine shows most, are probed only when the higher ones fail.
   Returns the rate (0 when no rung is sustained) and every probe made. *)
let max_rate probe ladder =
  let probes = ref [] in
  let lo = ref (-1) and hi = ref (Array.length ladder) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    let r = probe ladder.(mid) in
    probes := r :: !probes;
    if sustained r then lo := mid else hi := mid
  done;
  ((if !lo < 0 then 0.0 else ladder.(!lo)), List.rev !probes)

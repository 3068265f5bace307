(* The references the end-to-end times are divided by.  On a shared
   machine the speed the benchmark gets moves with its neighbours' load,
   by up to 2x over tens of seconds; a reference timed in the same run,
   interleaved with the workload, slows with it, and the ratio cancels
   most of that.  Both references are written here, on data made here from
   a fixed seed: no change to the library and no workload seed moves
   them, only the machine does.

   - The kernel, for the training workloads: [X^T (X p)] over a fixed
     sparse matrix of the train-kdd shape (30,000 x 60,000, 28 non-zeros a
     row, about 10 MB, so it leaves L2 like the workloads' own matrices),
     its rows split over as many domains as the workload's pool.
   - The wake-up, for the serving workload: a 50 us sleep, the timer
     wake-up every open-loop request waits on in the generator and again
     in the service. *)

let rows = 30_000

let cols = 60_000

let per_row = 28

(* passes in one timed call: about 35 ms on both cores of a 2-core Xeon *)
let passes = 8

type t = {
  row_off : int array;
  col_idx : int array;
  values : float array;
  p : float array;
  w : float array array;  (** one accumulator per domain *)
}

let create ~domains =
  (* a 48-bit LCG (drand48's constants), its high 32 bits as the output;
     the product wraps modulo 2^63, which keeps its low 48 bits exact *)
  let state = ref 0x1234ABCD330E in
  let next bound =
    state := ((!state * 0x5DEECE66D) + 0xB) land 0xFFFF_FFFF_FFFF;
    (!state lsr 16) mod bound
  in
  let nnz = rows * per_row in
  {
    row_off = Array.init (rows + 1) (fun i -> i * per_row);
    col_idx = Array.init nnz (fun _ -> next cols);
    values = Array.init nnz (fun _ -> float_of_int (1 + next 1000) /. 1000.0);
    p = Array.init cols (fun j -> float_of_int ((j * 7919) mod 1000) /. 1000.0);
    w = Array.init domains (fun _ -> Array.make cols 0.0);
  }

(* Rows [lo, hi) into accumulator [w]. *)
let part t w ~lo ~hi =
  Array.fill w 0 cols 0.0;
  for i = lo to hi - 1 do
    let k0 = t.row_off.(i) and k1 = t.row_off.(i + 1) - 1 in
    let s = ref 0.0 in
    for k = k0 to k1 do
      s := !s +. (t.values.(k) *. t.p.(t.col_idx.(k)))
    done;
    for k = k0 to k1 do
      let j = t.col_idx.(k) in
      w.(j) <- w.(j) +. (t.values.(k) *. !s)
    done
  done

(* One pass, the rows split evenly over the domains and joined at the
   end, like a pool op: a stall of any core delays it as it delays the
   workloads' own ops. *)
let pass t =
  let d = Array.length t.w in
  let range k = (k * rows / d, (k + 1) * rows / d) in
  let others =
    List.init (d - 1) (fun k ->
        let lo, hi = range (k + 1) in
        Domain.spawn (fun () -> part t t.w.(k + 1) ~lo ~hi))
  in
  let lo, hi = range 0 in
  part t t.w.(0) ~lo ~hi;
  List.iter Domain.join others

(* Wall time of one call of [passes] passes, in milliseconds. *)
let time_ms t =
  let (), ns =
    Mono.time_ns (fun () ->
        for _ = 1 to passes do
          pass t
        done)
  in
  Mono.ms ns

(* Median wall time of a 50 us sleep over 400 sleeps, in microseconds. *)
let wake_us () =
  Sample.median
    (Array.init 400 (fun _ ->
         let (), ns = Mono.time_ns (fun () -> Unix.sleepf 50e-6) in
         Mono.us ns))

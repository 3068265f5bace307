(* Order statistics over raw samples.  Percentiles interpolate linearly
   between neighbouring order statistics (the "R7" rule numpy uses), so
   they are exact functions of the kept samples — no histogram buckets. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then invalid_arg "Sample.quantile: no samples";
  let pos = q *. float_of_int (n - 1) in
  let i = int_of_float pos in
  if i + 1 >= n then a.(n - 1)
  else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let quantile xs q = quantile_sorted (sorted xs) q

let median xs = quantile xs 0.5

(* The tail is the highest percentile that leaves at least ten samples
   beyond it, capped at p99; below twenty samples the median stands in. *)
let tail_level n = Float.min 0.99 (Float.max 0.5 (1.0 -. (10.0 /. float_of_int n)))

let tail xs =
  let q = tail_level (Array.length xs) in
  (q, quantile xs q)

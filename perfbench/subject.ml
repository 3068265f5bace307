(* What one workload hands to the probes: its matrix, the operation it
   spends its time in, the engine that runs it, the model it would serve
   and one training run.  Every per-layer metric is measured on these, so
   each layer is timed on the workload's own inputs. *)

open Matrix
module Executor = Fusion.Executor

let device = Gpu_sim.Device.gtx_titan

type op =
  | Eq1 of { y : Vec.t; v : Vec.t option; beta : float; z : Vec.t }
      (** [X^T (v .* (X y)) + beta z] — Equation 1 as LR-CG and LogReg
          issue it *)
  | Fusedmm of { g : Csr.t; h : Dense.t }
      (** sigmoid SDDMM ⊕ SpMM over graph [g] and embedding [h] *)

(* One training run as the checks see it. *)
type trained = { weights : float array; iters : int; ops : int }

type model = {
  algo : (module Kf_ml.Algorithm.S);
  weights : Kf_ml.Algorithm.weights;
  rows : Kf_serve.Service.row array;  (** request bodies, used round robin *)
  expect : float array;  (** reference score of each row *)
}

type t = {
  input : Executor.input;
  op : op;
  engine : Executor.engine;  (** [Host] or [Dist] *)
  pool : Par.Pool.t;  (** the workload's host pool, [nproc] domains *)
  cluster : Kf_dist.Cluster.t option;  (** set when [engine = Dist] *)
  train : unit -> trained;
  model : trained -> model;
}

let total_ops trace =
  List.fold_left (fun acc (_, n) -> acc + n) 0 (Fusion.Pattern.Trace.entries trace)

(* ---- running the subject's operation at each layer ---- *)

let executor_op ?(engine = Executor.Host) ?pool ?cluster s () =
  match s.op with
  | Eq1 { y; v; beta; z } ->
      ignore
        (Executor.pattern ~engine ?pool ?cluster device s.input ~y ?v
           ~beta_z:(beta, z) ~alpha:1.0 ())
  | Fusedmm { g; h } ->
      ignore
        (Executor.fusedmm ~engine ?pool ~semiring:Fusion.Semiring.sigmoid device
           Fusion.Fusedmm.Sddmm_spmm g h)

(* The host kernel the executor dispatches to, called directly. *)
let host_kernel ~pool s () =
  match (s.op, s.input) with
  | Eq1 { y; v; beta; z }, Executor.Sparse x ->
      ignore (Fusion.Host_fused.pattern_sparse ~pool ~alpha:1.0 x ?v y ~beta ~z ())
  | Eq1 { y; v; beta; z }, Executor.Dense x ->
      ignore (Fusion.Host_fused.pattern_dense ~pool ~alpha:1.0 x ?v y ~beta ~z ())
  | Fusedmm { g; h }, _ ->
      ignore
        (Fusion.Host_fused.fusedmm ~pool ~semiring:Fusion.Semiring.sigmoid
           Fusion.Fusedmm.Sddmm_spmm g h)

(* The sequential reference of the same operation. *)
let sequential s () =
  match (s.op, s.input) with
  | Eq1 { y; v; beta; z }, Executor.Sparse x ->
      ignore (Blas.pattern_sparse ~alpha:1.0 x ?v y ~beta ~z ())
  | Eq1 { y; v; beta; z }, Executor.Dense x ->
      ignore (Blas.pattern_dense ~alpha:1.0 x ?v y ~beta ~z ())
  | Fusedmm { g; h }, _ ->
      ignore
        (Fusion.Fusedmm.fused ~semiring:Fusion.Semiring.sigmoid
           Fusion.Fusedmm.Sddmm_spmm g h)

(* The Equation-1 operation the dist tier runs on the subject's matrix: the
   workload's own for [Eq1], [X^T (X y)] over the graph otherwise. *)
let eq1_args s =
  match s.op with
  | Eq1 { y; v; beta; z } -> (y, v, beta, z)
  | Fusedmm _ ->
      let n = Executor.cols s.input in
      (Array.make n 1.0, None, 0.001, Array.make n 1.0)

let cluster_op c s () =
  let y, v, beta, z = eq1_args s in
  match s.input with
  | Executor.Sparse x ->
      ignore (Kf_dist.Cluster.pattern_sparse c x ~y ?v ~beta_z:(beta, z) ~alpha:1.0 ())
  | Executor.Dense x ->
      ignore (Kf_dist.Cluster.pattern_dense c x ~y ?v ~beta_z:(beta, z) ~alpha:1.0 ())

(* Length of the operation's output vector — what the executor's guard
   scans. *)
let output_length s =
  match s.op with
  | Eq1 _ -> Executor.cols s.input
  | Fusedmm { g; h } -> g.Csr.rows * h.Dense.cols

(* Bytes the operation must move at least once and the flops it does,
   computed from the shapes (8-byte floats and OCaml ints).  A fused
   Equation-1 pass streams [X] once and touches [y], [w] and [z] once
   each; FusedMM streams [G], gathers [H_j] per edge and reads and writes
   one row per node. *)
let traffic s =
  match (s.op, s.input) with
  | Eq1 { v; _ }, Executor.Sparse x ->
      let nnz = Csr.nnz x and rows = x.Csr.rows and cols = x.Csr.cols in
      let vb = if v = None then 0 else 8 * rows in
      ( (16 * nnz) + (8 * (rows + 1)) + (24 * cols) + vb,
        (4 * nnz) + (3 * cols) + if v = None then 0 else rows )
  | Eq1 { v; _ }, Executor.Dense x ->
      let rows = x.Dense.rows and cols = x.Dense.cols in
      let vb = if v = None then 0 else 8 * rows in
      ( (8 * rows * cols) + (24 * cols) + vb,
        (4 * rows * cols) + (3 * cols) + if v = None then 0 else rows )
  | Fusedmm { g; h }, _ ->
      let nnz = Csr.nnz g and rows = g.Csr.rows and dim = h.Dense.cols in
      ( (16 * nnz) + (8 * (rows + 1)) + (8 * dim * nnz) + (16 * dim * rows),
        nnz * ((4 * dim) + 4) )

(* A [rows]-row slice of the subject's matrix, as an executor input. *)
let slice s ~rows =
  match s.input with
  | Executor.Sparse x ->
      Executor.Sparse (Csr.slice_rows x ~row_start:0 ~row_count:(min rows x.Csr.rows))
  | Executor.Dense x ->
      let rows = min rows x.Dense.rows in
      Executor.Dense (Dense.init rows x.Dense.cols (fun i j -> Dense.get x i j))

(* ---- serving a trained model ---- *)

(* The leading [n] rows of [input] as request bodies, with the reference
   score of each through the sequential [Algorithm.predict]. *)
let serve_model ?(n = 4096) algo weights input =
  let n = min n (Executor.rows input) in
  let rows =
    Array.init n (fun i ->
        match input with
        | Executor.Dense x -> Kf_serve.Service.Dense_row (Dense.row x i)
        | Executor.Sparse x ->
            let a = x.Csr.row_off.(i) and b = x.Csr.row_off.(i + 1) in
            Kf_serve.Service.Sparse_row
              (Array.sub x.Csr.col_idx a (b - a), Array.sub x.Csr.values a (b - a)))
  in
  let reference = Kf_ml.Algorithm.predict algo weights input in
  { algo; weights; rows; expect = Array.sub reference 0 n }

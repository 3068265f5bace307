open Gpu_sim
open Matrix
open Gpulibs

module Log =
  (val Logs.src_log (Logs.Src.create "fusion.executor" ~doc:"pattern dispatch"))

type engine = Fused | Library | Host | Dist
type input = Sparse of Csr.t | Dense of Dense.t

(* both documented in the interface *)
type ctx = {
  device : Device.t; pool : Par.Pool.t option;
  cluster : Kf_dist.Cluster.t option; guard : string option;
}

type 'a run = {
  value : 'a; reports : Sim.report list; used : string; checked : bool;
}

module type S = sig
  val engine : engine
  val name : string
  val simulated : bool
  val fallback : engine option
  val xt_y : ctx -> input -> Vec.t -> alpha:float -> Vec.t run
  val pattern :
    ctx -> ?out:Vec.t -> input -> y:Vec.t -> ?v:Vec.t ->
    ?beta_z:float * Vec.t -> alpha:float -> unit -> Vec.t run
  val x_y : ctx -> input -> Vec.t -> Vec.t run
  val fusedmm :
    ctx -> ?out:Dense.t -> Semiring.t -> Fusedmm.instantiation -> Csr.t ->
    Dense.t -> Dense.t run
  val sddmm : ctx -> Semiring.t -> Csr.t -> Dense.t -> Csr.t run
  val spmm :
    ctx -> ?out:Dense.t -> Semiring.t -> Csr.t -> Dense.t -> Dense.t run
end

let ran ?(reports = []) ?(checked = false) used value =
  { value; reports; used; checked }

let sim used (value, reports) = ran ~reports used value
let sim3 used (value, reports, _plan) = ran ~reports used value
let layout ~sparse ~dense = function Sparse x -> sparse x | Dense x -> dense x
let named ~sparse ~dense =
  layout ~sparse:(fun _ -> sparse) ~dense:(fun _ -> dense)

(* The library compositions: a cuSPARSE/cuBLAS launch per call. *)
let mv d = layout ~sparse:(Cusparse.csrmv d) ~dense:(Cublas.gemv d)
let mv_t d = layout ~sparse:(Cusparse.csrmv_t d) ~dense:(Cublas.gemv_t d)

let epilogue d ~alpha ~beta_z (w, reports) =
  let w, r1 = if alpha = 1.0 then (w, []) else Cublas.scal d alpha w in
  match beta_z with
  | None -> (w, reports @ r1)
  | Some (beta, z) ->
      let bz, r2 = Cublas.scal d beta z in
      let w, r3 = Cublas.axpy d 1.0 bz w in
      (w, reports @ r1 @ r2 @ r3)

let compose d input ~y ?v ?beta_z ~alpha () =
  let p, r1 = mv d input y in
  let weigh v = Cublas.mul_elementwise d v p in
  let p, r2 = Option.fold ~none:(p, []) ~some:weigh v in
  let w, r3 = mv_t d input p in
  epilogue d ~alpha ~beta_z (w, r1 @ r2 @ r3)

module Library = struct
  let engine, name, simulated, fallback = (Library, "library", true, None)

  let xt_y c input y ~alpha =
    sim
      (named input ~sparse:"cusparse csrmv (transpose mode)"
         ~dense:"cublas gemv (transpose)")
      (epilogue c.device ~alpha ~beta_z:None (mv_t c.device input y))

  let pattern c ?out:_ input ~y ?v ?beta_z ~alpha () =
    sim
      (named input ~sparse:"cusparse csrmv + csrmv_t (+ cublas level-1)"
         ~dense:"cublas gemv + gemv_t (+ level-1)")
      (compose c.device input ~y ?v ?beta_z ~alpha ())

  let x_y c input y =
    sim (named input ~sparse:"cusparse csrmv" ~dense:"cublas gemv")
      (mv c.device input y)

  (* one kernel either way: there is nothing to fuse until the consumer
     is known (that is the plan compiler's job) *)
  let sddmm c (sr : Semiring.t) g h =
    sim3 ("sddmm [" ^ sr.name ^ "]") (Fusedmm.sim_sddmm c.device sr g h)

  let spmm c ?out:_ (sr : Semiring.t) s h =
    sim3 ("spmm [" ^ sr.name ^ "]") (Fusedmm.sim_spmm c.device sr s h)

  (* the unfused composition the paper argues against: materialise S,
     then aggregate it in a second launch *)
  let fusedmm c ?out:_ sr inst g h =
    match inst with
    | Fusedmm.Spmm -> { (spmm c sr g h) with used = "cusparse-style spmm" }
    | Fusedmm.Sddmm_spmm ->
        let s, r1, plan = Fusedmm.sim_sddmm c.device sr g h in
        let z, r2, _ = Fusedmm.sim_spmm ~plan c.device sr s h in
        ran ~reports:(r1 @ r2) "sddmm + spmm (two launches, S materialised)" z
end

(* The paper's kernels.  Plain X*y, standalone SDDMM/SpMM and dense
   X^T*y (cuBLAS's gemv is already a single pass) stay the library's. *)
module Fused = struct
  include Library
  let engine, name, fallback = (Fused, "fused", Some Library)

  let sparse used (w, reports, (plan : Tuning.sparse_plan)) =
    ran ~reports (if plan.sp_large_n then used ^ " (large-n)" else used) w

  let xt_y c input y ~alpha =
    match input with
    | Sparse x ->
        sparse "fused sparse X^T*p" (Fused_sparse.xt_p c.device x y ~alpha)
    | Dense _ -> Library.xt_y c input y ~alpha

  let pattern c ?out:_ input ~y ?v ?beta_z ~alpha () =
    match input with
    | Sparse x ->
        sparse "fused sparse"
          (Fused_sparse.pattern c.device x ~y ?v ?beta_z ~alpha ())
    | Dense x -> (
        match Fused_dense.pattern c.device x ~y ?v ?beta_z ~alpha () with
        | w, reports, _, spec ->
            ran ~reports ("fused dense " ^ Codegen.kernel_name spec) w
        | exception Invalid_argument _ ->
            (* Columns beyond the register budget: the paper prescribes
               falling back to two cuBLAS launches (Section 3.2). *)
            sim "cublas fallback (columns exceed register budget)"
              (compose c.device input ~y ?v ?beta_z ~alpha ()))

  let fusedmm c ?out:_ (sr : Semiring.t) inst g h =
    sim3
      (Printf.sprintf "fused %s [%s]" (Fusedmm.inst_label inst) sr.name)
      (Fusedmm.sim_fused c.device sr inst g h)
end

(* Real multicore kernels; one handed the guard point checks its output. *)
module Host = struct
  let engine, name, simulated, fallback = (Host, "host", false, Some Library)
  let pool c = match c.pool with Some p -> p | None -> Par.Pool.default ()

  (* ["host <kernel> [<detail><d> domain(s)]"], plural on the BLAS *)
  let on c ?(checked = true) ?(plural = false) kernel detail k =
    let p = pool c in
    let d = Par.Pool.size p in
    ran ~checked:(checked && c.guard <> None)
      (String.concat ""
         [ "host "; kernel; " ["; detail; string_of_int d;
           (if d = 1 && not plural then " domain]" else " domains]") ])
      (k p c.guard)

  let fused c kernel ~cols k =
    let d = Par.Pool.size (pool c) in
    let variant = Host_fused.choose_variant ~domains:d ~cols () in
    on c kernel (Host_fused.variant_name variant ^ ", ") (k variant)

  let xt_y c input y ~alpha =
    match input with
    | Sparse x ->
        fused c "fused X^T*p" ~cols:x.cols (fun variant pool guard ->
            Host_fused.xt_p ~pool ~variant ?guard ~alpha x y)
    | Dense x ->
        on c ~plural:true "par_gemv_t" "" (fun pool guard ->
            Host_fused.xt_p_dense ~pool ?guard ~alpha x y)

  let pattern c ?out input ~y ?v ?beta_z ~alpha () =
    let beta = Option.map fst beta_z and z = Option.map snd beta_z in
    match input with
    | Sparse x ->
        fused c "fused sparse" ~cols:x.cols (fun variant pool guard ->
            Host_fused.pattern_sparse ~pool ~variant ?out ?guard ~alpha x ?v y
              ?beta ?z ())
    | Dense x ->
        fused c "fused dense" ~cols:x.cols (fun variant pool guard ->
            Host_fused.pattern_dense ~pool ~variant ?out ?guard ~alpha x ?v y
              ?beta ?z ())

  let x_y c input y =
    let blas kernel mv = on c ~checked:false ~plural:true kernel "" mv in
    match input with
    | Sparse x -> blas "par_csrmv" (fun pool _ -> Blas.par_csrmv ~pool x y)
    | Dense x -> blas "par_gemv" (fun pool _ -> Blas.par_gemv ~pool x y)

  let fusedmm c ?out semiring inst g h =
    let kernel = "fusedmm " ^ Fusedmm.inst_key inst in
    on c kernel "row-disjoint, " (fun pool guard ->
        Host_fused.fusedmm ~pool ~semiring ?out ?guard inst g h)

  let sddmm c semiring g h =
    on c "sddmm" "row-disjoint, " (fun pool guard ->
        Host_fused.sddmm ~pool ~semiring ?guard g h)

  let spmm c ?out semiring s h =
    on c "spmm" "row-disjoint, " (fun pool guard ->
        Host_fused.spmm ~pool ~semiring ?out ?guard s h)
end

(* Graph ops are not sharded yet, so [Dist] runs the host kernels.  That
   fallback is permanent: warn once per process per op, not per call. *)
let dist_warned = Atomic.make []

let rec no_dist_kernels op =
  let seen = Atomic.get dist_warned in
  if List.mem op seen then ()
  else if Atomic.compare_and_set dist_warned seen (op :: seen) then
    Log.warn (fun m ->
        m "dist engine has no %s kernels; falling back to host" op)
  else no_dist_kernels op

(* Row shards in worker processes; [used] is read back after the op, once
   the 1D/1.5D choice is made.  An unspawnable cluster falls to [Host]. *)
module Dist = struct
  module C = Kf_dist.Cluster
  let engine, name, simulated, fallback = (Dist, "dist", false, Some Host)

  let sharded c host input ~sparse ~dense =
    try
      let cl = match c.cluster with Some cl -> cl | None -> C.default () in
      let w = layout input ~sparse:(sparse cl) ~dense:(dense cl) in
      ran (C.describe cl) w
    with C.Unavailable msg ->
      Log.warn (fun m ->
          m "dist engine unavailable (%s); falling back to host" msg);
      host ()

  let xt_y c input y ~alpha =
    sharded c (fun () -> Host.xt_y c input y ~alpha) input
      ~sparse:(C.xt_y_sparse ~y ~alpha) ~dense:(C.xt_y_dense ~y ~alpha)

  let pattern c ?out input ~y ?v ?beta_z ~alpha () =
    let host () = Host.pattern c ?out input ~y ?v ?beta_z ~alpha () in
    sharded c host input
      ~sparse:(fun cl x -> C.pattern_sparse cl x ~y ?v ?beta_z ~alpha ())
      ~dense:(fun cl x -> C.pattern_dense cl x ~y ?v ?beta_z ~alpha ())

  let x_y c input y =
    sharded c (fun () -> Host.x_y c input y) input
      ~sparse:(fun cl x -> C.x_y_sparse cl x y)
      ~dense:(fun cl x -> C.x_y_dense cl x y)

  let fusedmm c = no_dist_kernels "fusedmm"; Host.fusedmm c
  let sddmm c = no_dist_kernels "sddmm"; Host.sddmm c
  let spmm c = no_dist_kernels "spmm"; Host.spmm c
end

let of_engine : engine -> (module S) = function
  | Fused -> (module Fused)
  | Library -> (module Library)
  | Host -> (module Host)
  | Dist -> (module Dist)

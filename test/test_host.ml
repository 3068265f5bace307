(* Host multicore backend: results must match the sequential reference
   across random matrices x domain counts {1,2,4} x both aggregation
   variants, within floating-point reassociation error (1e-9 relative). *)
open Matrix

let pool1 = lazy (Par.Pool.create ~size:1 ())
let pool2 = lazy (Par.Pool.create ~size:2 ())
let pool4 = lazy (Par.Pool.create ~size:4 ())

let pools () =
  [ (1, Lazy.force pool1); (2, Lazy.force pool2); (4, Lazy.force pool4) ]

let variants =
  [
    Fusion.Host_fused.Dense_acc;
    Fusion.Host_fused.Blocked;
  ]

let max_abs v = Array.fold_left (fun m x -> Stdlib.max m (abs_float x)) 0.0 v

let close ~what reference w =
  if Array.length reference <> Array.length w then
    QCheck.Test.fail_reportf "%s: length %d <> %d" what
      (Array.length reference) (Array.length w);
  let tol = 1e-9 *. (1.0 +. max_abs reference) in
  Array.iteri
    (fun i r ->
      if abs_float (r -. w.(i)) > tol then
        QCheck.Test.fail_reportf "%s: w.(%d) = %.17g, reference %.17g" what i
          w.(i) r)
    reference;
  true

(* (seed, rows, cols, density, with_v, with_bz, alpha); one draw in
   five is wider than [Par.Pool.parallel_for]'s 256-element cutoff, so
   the column-parallel finish pass runs on the pool *)
let sparse_case =
  QCheck.make
    ~print:(fun (seed, r, c, d, v, bz, a) ->
      Printf.sprintf "seed=%d rows=%d cols=%d density=%.3f v=%b bz=%b a=%g"
        seed r c d v bz a)
    QCheck.Gen.(
      let* seed = int_bound 10_000 in
      let* rows = int_range 1 80 in
      let* cols = frequency [ (4, int_range 1 60); (1, int_range 257 400) ] in
      let* density = float_range 0.01 0.4 in
      let* with_v = bool in
      let* with_bz = bool in
      let* alpha = float_range (-2.0) 2.0 in
      return (seed, rows, cols, density, with_v, with_bz, alpha))

let test_sparse_matches =
  QCheck.Test.make ~count:60 ~name:"host pattern_sparse == Blas.pattern_sparse"
    sparse_case
    (fun (seed, rows, cols, density, with_v, with_bz, alpha) ->
      let rng = Rng.create seed in
      let x = Gen.sparse_uniform rng ~rows ~cols ~density in
      let y = Gen.vector rng cols in
      let v = if with_v then Some (Gen.vector rng rows) else None in
      let beta = if with_bz then Some 0.75 else None in
      let z = if with_bz then Some (Gen.vector rng cols) else None in
      let reference = Blas.pattern_sparse ~alpha x ?v y ?beta ?z () in
      List.for_all
        (fun (d, pool) ->
          List.for_all
            (fun variant ->
              let w =
                Fusion.Host_fused.pattern_sparse ~pool ~variant ~alpha x ?v y
                  ?beta ?z ()
              in
              close
                ~what:
                  (Printf.sprintf "sparse d=%d %s" d
                     (Fusion.Host_fused.variant_name variant))
                reference w)
            variants)
        (pools ()))

let test_dense_matches =
  QCheck.Test.make ~count:40 ~name:"host pattern_dense == Blas.pattern_dense"
    sparse_case
    (fun (seed, rows, cols, _density, with_v, with_bz, alpha) ->
      let rng = Rng.create seed in
      let x = Gen.dense rng ~rows ~cols in
      let y = Gen.vector rng cols in
      let v = if with_v then Some (Gen.vector rng rows) else None in
      let beta = if with_bz then Some (-0.5) else None in
      let z = if with_bz then Some (Gen.vector rng cols) else None in
      let reference = Blas.pattern_dense ~alpha x ?v y ?beta ?z () in
      List.for_all
        (fun (d, pool) ->
          List.for_all
            (fun variant ->
              let w =
                Fusion.Host_fused.pattern_dense ~pool ~variant ~alpha x ?v y
                  ?beta ?z ()
              in
              close
                ~what:
                  (Printf.sprintf "dense d=%d %s" d
                     (Fusion.Host_fused.variant_name variant))
                reference w)
            variants)
        (pools ()))

let test_xt_p_matches =
  QCheck.Test.make ~count:40 ~name:"host xt_p == alpha * Blas.csrmv_t"
    sparse_case
    (fun (seed, rows, cols, density, _v, _bz, alpha) ->
      let rng = Rng.create seed in
      let x = Gen.sparse_uniform rng ~rows ~cols ~density in
      let p = Gen.vector rng rows in
      let reference = Blas.csrmv_t x p in
      Vec.scal alpha reference;
      List.for_all
        (fun (d, pool) ->
          List.for_all
            (fun variant ->
              let w = Fusion.Host_fused.xt_p ~pool ~variant ~alpha x p in
              close
                ~what:
                  (Printf.sprintf "xt_p d=%d %s" d
                     (Fusion.Host_fused.variant_name variant))
                reference w)
            variants)
        (pools ()))

(* The blocked kernel must agree with the sequential reference whatever
   the tile geometry: single-column tiles (maximal segment overhead),
   small and medium tiles, and a width that does not divide the column
   count (remainder tile), across row-block heights including 1. *)
let tile_case =
  QCheck.make
    ~print:(fun (seed, r, c, d, tr, tc, bz) ->
      Printf.sprintf
        "seed=%d rows=%d cols=%d density=%.3f tile_rows=%d tile_cols=%d bz=%b"
        seed r c d tr tc bz)
    QCheck.Gen.(
      let* seed = int_bound 10_000 in
      let* rows = int_range 1 80 in
      let* cols = int_range 1 70 in
      let* density = float_range 0.01 0.4 in
      let* tile_rows = oneofl [ 1; 8; 64; 33 ] in
      let* tile_cols = oneofl [ 1; 8; 64; 23 ] in
      let* with_bz = bool in
      return (seed, rows, cols, density, tile_rows, tile_cols, with_bz))

let test_blocked_tile_sizes =
  QCheck.Test.make ~count:80
    ~name:"blocked kernel == reference across tile sizes" tile_case
    (fun (seed, rows, cols, density, tile_rows, tile_cols, with_bz) ->
      let rng = Rng.create seed in
      let x = Gen.sparse_uniform rng ~rows ~cols ~density in
      let xd = Gen.dense rng ~rows ~cols in
      let y = Gen.vector rng cols in
      let beta = if with_bz then Some 0.75 else None in
      let z = if with_bz then Some (Gen.vector rng cols) else None in
      let ref_sparse = Blas.pattern_sparse ~alpha:1.5 x y ?beta ?z () in
      let ref_dense = Blas.pattern_dense ~alpha:1.5 xd y ?beta ?z () in
      List.for_all
        (fun (d, pool) ->
          let tag k =
            Printf.sprintf "blocked %s d=%d tr=%d tc=%d" k d tile_rows
              tile_cols
          in
          close ~what:(tag "sparse") ref_sparse
            (Fusion.Host_fused.pattern_sparse ~pool
               ~variant:Fusion.Host_fused.Blocked ~tile_rows ~tile_cols
               ~alpha:1.5 x y ?beta ?z ())
          && close ~what:(tag "dense") ref_dense
               (Fusion.Host_fused.pattern_dense ~pool
                  ~variant:Fusion.Host_fused.Blocked ~tile_rows ~tile_cols
                  ~alpha:1.5 xd y ?beta ?z ())
          && close ~what:(tag "par_csrmv_t")
               (Blas.csrmv_t x (Gen.vector (Rng.create seed) rows))
               (Blas.par_csrmv_t ~pool ~tile_cols x
                  (Gen.vector (Rng.create seed) rows))
          && close ~what:(tag "par_gemv_t")
               (Blas.gemv_t xd (Gen.vector (Rng.create seed) rows))
               (Blas.par_gemv_t ~pool ~tile_rows ~tile_cols xd
                  (Gen.vector (Rng.create seed) rows)))
        (pools ()))

(* Zero-row / zero-column / empty-nnz shapes short-circuit to the
   epilogue in every variant (and in the blocked parallel BLAS). *)
let test_degenerate_shapes () =
  let empty ~rows ~cols =
    Csr.create ~rows ~cols ~values:[||] ~col_idx:[||]
      ~row_off:(Array.make (rows + 1) 0)
  in
  let shapes =
    [
      ("zero rows", empty ~rows:0 ~cols:5);
      ("zero cols", empty ~rows:4 ~cols:0);
      ("empty nnz", empty ~rows:4 ~cols:5);
    ]
  in
  List.iter
    (fun (what, x) ->
      let y = Array.make x.Csr.cols 1.0 in
      let z = Array.init x.Csr.cols (fun i -> float_of_int (i + 1)) in
      let expect = Array.map (fun zc -> 0.5 *. zc) z in
      List.iter
        (fun (d, pool) ->
          List.iter
            (fun variant ->
              let w =
                Fusion.Host_fused.pattern_sparse ~pool ~variant ~alpha:2.0 x y
                  ~beta:0.5 ~z ()
              in
              Alcotest.(check bool)
                (Printf.sprintf "%s d=%d %s: beta*z survives" what d
                   (Fusion.Host_fused.variant_name variant))
                true
                (Vec.approx_equal ~tol:1e-12 w expect);
              let wt =
                Fusion.Host_fused.xt_p ~pool ~variant ~alpha:2.0 x
                  (Array.make x.Csr.rows 1.0)
              in
              Alcotest.(check int)
                (Printf.sprintf "%s d=%d %s: xt_p length" what d
                   (Fusion.Host_fused.variant_name variant))
                x.Csr.cols (Array.length wt))
            variants;
          let pt = Blas.par_csrmv_t ~pool x (Array.make x.Csr.rows 1.0) in
          Alcotest.(check bool)
            (Printf.sprintf "%s d=%d: par_csrmv_t zeros" what d)
            true
            (Array.for_all (fun v -> v = 0.0) pt))
        (pools ()))
    shapes

let test_par_blas_matches =
  QCheck.Test.make ~count:40 ~name:"parallel BLAS == sequential BLAS"
    sparse_case
    (fun (seed, rows, cols, density, _v, _bz, _a) ->
      let rng = Rng.create seed in
      let x = Gen.sparse_uniform rng ~rows ~cols ~density in
      let xd = Gen.dense rng ~rows ~cols in
      let y = Gen.vector rng cols in
      let p = Gen.vector rng rows in
      List.for_all
        (fun (d, pool) ->
          let tag s = Printf.sprintf "%s d=%d" s d in
          close ~what:(tag "par_csrmv") (Blas.csrmv x y)
            (Blas.par_csrmv ~pool x y)
          && close ~what:(tag "par_csrmv_t") (Blas.csrmv_t x p)
               (Blas.par_csrmv_t ~pool x p)
          && close ~what:(tag "par_gemv") (Blas.gemv xd y)
               (Blas.par_gemv ~pool xd y)
          && close ~what:(tag "par_gemv_t") (Blas.gemv_t xd p)
               (Blas.par_gemv_t ~pool xd p))
        (pools ()))

(* Deterministic end-to-end checks through the executor and a session. *)

let device = Gpu_sim.Device.gtx_titan

let test_executor_host_engine () =
  let rng = Rng.create 99 in
  let x = Gen.sparse_uniform rng ~rows:3000 ~cols:200 ~density:0.02 in
  let y = Gen.vector rng 200 in
  let v = Gen.vector rng 3000 in
  let z = Gen.vector rng 200 in
  let reference = Blas.pattern_sparse ~alpha:2.0 x ~v y ~beta:0.5 ~z () in
  let r =
    Fusion.Executor.pattern ~engine:Fusion.Executor.Host
      ~pool:(Lazy.force pool2) device (Sparse x) ~y ~v ~beta_z:(0.5, z)
      ~alpha:2.0 ()
  in
  Alcotest.(check bool) "host result matches reference" true
    (Vec.approx_equal ~tol:1e-9 r.Fusion.Executor.w reference);
  Alcotest.(check bool) "no simulated reports" true
    (r.Fusion.Executor.reports = []);
  Alcotest.(check bool) "wall-clock time recorded" true
    (r.Fusion.Executor.time_ms >= 0.0);
  Alcotest.(check bool) "engine string names the host backend" true
    (Astring.String.is_infix ~affix:"host fused sparse"
       r.Fusion.Executor.engine_used)

let test_host_variant_auto_switch () =
  (* A tiny accumulator budget must switch multi-domain runs to the
     owner-computes blocked variant; a large one keeps per-domain dense
     accumulators; a single domain never needs either. *)
  Alcotest.(check bool) "small budget -> blocked" true
    (Fusion.Host_fused.choose_variant ~budget_bytes:64 ~domains:4 ~cols:1000 ()
    = Fusion.Host_fused.Blocked);
  Alcotest.(check bool) "large budget -> dense-acc" true
    (Fusion.Host_fused.choose_variant ~budget_bytes:(1 lsl 30) ~domains:4
       ~cols:1000 ()
    = Fusion.Host_fused.Dense_acc);
  Alcotest.(check bool) "one domain -> dense-acc even on a tiny budget" true
    (Fusion.Host_fused.choose_variant ~budget_bytes:64 ~domains:1 ~cols:1000 ()
    = Fusion.Host_fused.Dense_acc)

let test_blocked_stats_counters () =
  (* The blocked kernel reports its tile structure and the merge
     traffic it eliminated, and still satisfies the rows/nnz
     conservation invariant. *)
  let rng = Rng.create 11 in
  let x = Gen.sparse_uniform rng ~rows:400 ~cols:300 ~density:0.05 in
  let y = Gen.vector rng 300 in
  let pool = Lazy.force pool4 in
  let stats = Kf_obs.Host_stats.create ~domains:4 in
  let reference = Blas.pattern_sparse ~alpha:1.0 x y () in
  let w =
    Kf_obs.Host_stats.with_sink stats (fun () ->
        Fusion.Host_fused.pattern_sparse ~pool
          ~variant:Fusion.Host_fused.Blocked ~tile_cols:64 ~alpha:1.0 x y ())
  in
  Alcotest.(check bool) "result matches reference" true
    (Vec.approx_equal ~tol:1e-9 w reference);
  Alcotest.(check string) "variant recorded" "blocked"
    stats.Kf_obs.Host_stats.variant;
  Alcotest.(check bool) "tiles scattered" true
    (stats.Kf_obs.Host_stats.tiles > 0);
  Alcotest.(check bool) "layout built" true
    (stats.Kf_obs.Host_stats.layout_builds >= 1);
  Alcotest.(check bool) "merge traffic eliminated" true
    (stats.Kf_obs.Host_stats.merge_bytes_saved > 0);
  Alcotest.(check int) "no merge traffic incurred" 0
    stats.Kf_obs.Host_stats.merge_bytes;
  Alcotest.(check int) "rows conserved" 400
    (Kf_obs.Host_stats.total_rows stats);
  Alcotest.(check int) "nnz conserved" (Csr.nnz x)
    (Kf_obs.Host_stats.total_nnz stats)

let test_session_host_lr () =
  (* A whole CG solve on the host engine must converge to the same
     solution as the fused simulation. *)
  let rng = Rng.create 5 in
  let x = Gen.sparse_uniform rng ~rows:2000 ~cols:100 ~density:0.05 in
  let truth = Gen.vector rng 100 in
  let targets = Blas.csrmv x truth in
  let fused =
    Kf_ml.Linreg_cg.fit ~engine:Fusion.Executor.Fused device (Sparse x)
      ~targets
  in
  let host =
    Kf_ml.Linreg_cg.fit ~engine:Fusion.Executor.Host device (Sparse x)
      ~targets
  in
  Alcotest.(check bool) "same solution" true
    (Vec.approx_equal ~tol:1e-6 fused.Kf_ml.Linreg_cg.weights
       host.Kf_ml.Linreg_cg.weights);
  Alcotest.(check bool) "host wall-clock accumulated" true
    (host.Kf_ml.Linreg_cg.gpu_ms >= 0.0)

(* ---- the pool's scratch workspace ---------------------------------------- *)

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* One op of the workspace sequence: a sparse or dense input of the
   given shape, run by [variant] on [pool] and by the sequential
   reference. *)
let workspace_op ~pool ~variant ~seed ~rows ~cols ~dense ~with_v ~with_bz =
  let rng = Rng.create seed in
  let y = Gen.vector rng cols in
  let v = if with_v then Some (Gen.vector rng rows) else None in
  let beta = if with_bz then Some 0.25 else None in
  let z = if with_bz then Some (Gen.vector rng cols) else None in
  if dense then
    let x = Gen.dense rng ~rows ~cols in
    ( Blas.pattern_dense ~alpha:1.5 x ?v y ?beta ?z (),
      Fusion.Host_fused.pattern_dense ~pool ~variant ~alpha:1.5 x ?v y ?beta
        ?z () )
  else
    let x = Gen.sparse_uniform rng ~rows ~cols ~density:0.15 in
    ( Blas.pattern_sparse ~alpha:1.5 x ?v y ?beta ?z (),
      Fusion.Host_fused.pattern_sparse ~pool ~variant ~alpha:1.5 x ?v y ?beta
        ?z () )

(* A sequence of ops on the same pools whose column counts alternate
   between wide and narrow, so every op after the first reuses scratch
   left behind by a differently shaped one: stale accumulator or [p]
   contents would show up as a wrong result. *)
let test_workspace_alternating_shapes =
  QCheck.Test.make ~count:25
    ~name:"scratch reuse across alternating shapes stays exact"
    QCheck.(
      make
        ~print:(fun ops ->
          String.concat "; "
            (List.map
               (fun (seed, rows, cols, dense, blocked, v, bz) ->
                 Printf.sprintf "seed=%d %dx%d dense=%b blocked=%b v=%b bz=%b"
                   seed rows cols dense blocked v bz)
               ops))
        Gen.(
          let op i =
            let* seed = int_bound 10_000 in
            let* rows = int_range 1 90 in
            let* cols =
              if i mod 2 = 0 then int_range 30 70 else int_range 1 20
            in
            let* dense = bool in
            let* blocked = bool in
            let* v = bool in
            let* bz = bool in
            return (seed, rows, cols, dense, blocked, v, bz)
          in
          let* n = int_range 2 8 in
          flatten_l (List.init n op)))
    (fun ops ->
      List.for_all
        (fun (d, pool) ->
          List.for_all
            (fun (seed, rows, cols, dense, blocked, with_v, with_bz) ->
              let variant =
                if blocked then Fusion.Host_fused.Blocked
                else Fusion.Host_fused.Dense_acc
              in
              let reference, w =
                workspace_op ~pool ~variant ~seed ~rows ~cols ~dense ~with_v
                  ~with_bz
              in
              close
                ~what:
                  (Printf.sprintf "d=%d %s %dx%d" d
                     (Fusion.Host_fused.variant_name variant)
                     rows cols)
                reference w)
            ops)
        (pools ()))

(* Repeating an op whose shape the pool has already served allocates
   no accumulator; a fresh pool records its first growth. *)
let test_workspace_steady_state () =
  List.iter
    (fun d ->
      let pool = Par.Pool.create ~size:d () in
      Fun.protect
        ~finally:(fun () -> Par.Pool.shutdown pool)
        (fun () ->
          List.iter
            (fun (dense, variant) ->
              let allocs ~rows ~cols =
                let stats = Kf_obs.Host_stats.create ~domains:d in
                Kf_obs.Host_stats.with_sink stats (fun () ->
                    ignore
                      (workspace_op ~pool ~variant ~seed:3 ~rows ~cols ~dense
                         ~with_v:true ~with_bz:true));
                stats.Kf_obs.Host_stats.acc_allocations
              in
              let what s =
                Printf.sprintf "d=%d %s %s: %s" d
                  (if dense then "dense" else "sparse")
                  (Fusion.Host_fused.variant_name variant)
                  s
              in
              ignore (allocs ~rows:120 ~cols:64);
              Alcotest.(check int) (what "repeat allocates nothing") 0
                (allocs ~rows:120 ~cols:64);
              Alcotest.(check int) (what "smaller shape allocates nothing") 0
                (allocs ~rows:50 ~cols:20))
            [
              (false, Fusion.Host_fused.Dense_acc);
              (true, Fusion.Host_fused.Dense_acc);
              (false, Fusion.Host_fused.Blocked);
              (true, Fusion.Host_fused.Blocked);
            ];
          (* growth is what gets recorded *)
          let stats = Kf_obs.Host_stats.create ~domains:d in
          Kf_obs.Host_stats.with_sink stats (fun () ->
              ignore
                (workspace_op ~pool ~variant:Fusion.Host_fused.Dense_acc
                   ~seed:4 ~rows:10 ~cols:200 ~dense:false ~with_v:false
                   ~with_bz:false));
          Alcotest.(check int)
            (Printf.sprintf "d=%d wider shape grows every worker's buffer" d)
            d stats.Kf_obs.Host_stats.acc_allocations))
    [ 1; 2; 4 ]

(* [?out]: the result is the caller's vector, bit-identical to the
   no-out result — on the host kernels themselves and when the recovery
   chain gives up on Host and falls back to Library. *)
let test_pattern_out () =
  let rng = Rng.create 17 in
  let sparse = Gen.sparse_uniform rng ~rows:120 ~cols:40 ~density:0.1 in
  let dense = Gen.dense rng ~rows:60 ~cols:24 in
  let pool = Lazy.force pool2 in
  List.iter
    (fun (name, input) ->
      let cols = Fusion.Executor.cols input in
      let y = Gen.vector rng cols and z = Gen.vector rng cols in
      let run ?out () =
        Fusion.Executor.pattern ~engine:Fusion.Executor.Host ~pool ?out device
          input ~y ~beta_z:(0.5, z) ~alpha:(-1.0) ()
      in
      let check_out ~what =
        let fresh = run () in
        let out = Array.make cols nan in
        let r = run ~out () in
        Alcotest.(check bool) (what ^ ": result is out") true (r.w == out);
        Alcotest.(check bool) (what ^ ": same bits as without out") true
          (same_bits fresh.w out);
        r
      in
      ignore (check_out ~what:name);
      let r =
        Kf_resil.Fault.with_config "launch:point=host_fused:every=1:seed=0"
          (fun () -> check_out ~what:(name ^ " under faults"))
      in
      Alcotest.(check bool)
        (name ^ ": faults forced the library fallback")
        true
        (not (String.starts_with ~prefix:"host" r.engine_used));
      (match run ~out:(Array.make (cols + 1) 0.0) () with
      | _ -> Alcotest.fail (name ^ ": short out accepted")
      | exception Invalid_argument _ -> ());
      match run ~out:z () with
      | _ -> Alcotest.fail (name ^ ": out aliasing z accepted")
      | exception Invalid_argument _ -> ())
    [ ("sparse", Fusion.Executor.Sparse sparse); ("dense", Dense dense) ]

(* ---- Equation 1's finish pass: bits and guard ----------------------------- *)

let pool3 = lazy (Par.Pool.create ~size:3 ())

(* Inputs wide enough (700 and 300 columns) that the finish pass runs on
   the pool rather than inline on the coordinator. *)
let finish_inputs () =
  let rng = Rng.create 77 in
  let xs = Gen.sparse_uniform rng ~rows:400 ~cols:700 ~density:0.03 in
  let xd = Gen.dense rng ~rows:90 ~cols:300 in
  let ys = Gen.vector rng 700 and vs = Gen.vector rng 400 in
  let zs = Gen.vector rng 700 in
  let yd = Gen.vector rng 300 and vd = Gen.vector rng 90 in
  let zd = Gen.vector rng 300 in
  (xs, ys, vs, zs, xd, yd, vd, zd)

(* [Dense_acc] merges the per-domain accumulators in one tree order,
   whatever pass does it: the checksums were recorded when the merge
   was a tree reduce of whole accumulators on the coordinator.  Three
   domains take the odd tree, [(a0 + a1) + a2]. *)
let test_dense_acc_bits_pinned () =
  let xs, ys, vs, zs, xd, yd, vd, zd = finish_inputs () in
  let variant = Fusion.Host_fused.Dense_acc in
  List.iter
    (fun (pool, sparse_sum, dense_sum) ->
      let d = Par.Pool.size pool in
      let s =
        Fusion.Host_fused.pattern_sparse ~pool ~variant ~alpha:0.75 xs ~v:vs
          ys ~beta:(-0.5) ~z:zs ()
      in
      let w =
        Fusion.Host_fused.pattern_dense ~pool ~variant ~alpha:0.75 xd ~v:vd yd
          ~beta:(-0.5) ~z:zd ()
      in
      Alcotest.(check string)
        (Printf.sprintf "sparse, %d domains" d)
        sparse_sum
        (Kf_resil.Ckpt.checksum_floats s);
      Alcotest.(check string)
        (Printf.sprintf "dense, %d domains" d)
        dense_sum
        (Kf_resil.Ckpt.checksum_floats w))
    [
      (Lazy.force pool1, "7f8648568d242a38", "0391fe839e89502c");
      (Lazy.force pool2, "5390f5e7d32e4955", "1eb3d5b03aefbf81");
      (Lazy.force pool3, "5377e939dc368993", "a592add39a21cfc2");
      (Lazy.force pool4, "3f0f1f513fb1e24c", "299153ad0e34c6fe");
    ]

let unhealthy f =
  match f () with
  | _ -> Alcotest.fail "expected Guard.Unhealthy"
  | exception Kf_resil.Guard.Unhealthy { point; index; value } ->
      (point, index, value)

let same_unhealthy msg (p, i, v) (p', i', v') =
  Alcotest.(check string) (msg ^ ": point") p p';
  Alcotest.(check int) (msg ^ ": index") i i';
  Alcotest.(check int64)
    (msg ^ ": value bits") (Int64.bits_of_float v) (Int64.bits_of_float v')

(* The Equation-1 host kernels check their own output: the exception is
   the one a scan of the unguarded result raises — on both variants,
   every pool size, sparse and dense — and a clean result keeps its
   bits.  [z] poisoned at two late columns puts the first bad index
   away from column 0, so the column ranges must agree on the least. *)
let test_eq1_kernel_guard () =
  let xs, ys, vs, zs, xd, yd, vd, zd = finish_inputs () in
  let poison v idx =
    let v = Array.copy v in
    List.iter (fun (i, x) -> v.(i) <- x) idx;
    v
  in
  let point = "test.eq1" in
  let scan v = unhealthy (fun () -> Kf_resil.Guard.check_vec ~point v) in
  Kf_resil.Guard.with_enabled true (fun () ->
      List.iter
        (fun pool ->
          List.iter
            (fun variant ->
              let msg s =
                Printf.sprintf "%s, %s, %d domains" s
                  (Fusion.Host_fused.variant_name variant)
                  (Par.Pool.size pool)
              in
              let sparse ?guard y z =
                Fusion.Host_fused.pattern_sparse ~pool ~variant ?guard
                  ~alpha:0.75 xs ~v:vs y ~beta:(-0.5) ~z ()
              in
              let dense ?guard y z =
                Fusion.Host_fused.pattern_dense ~pool ~variant ?guard
                  ~alpha:0.75 xd ~v:vd y ~beta:(-0.5) ~z ()
              in
              let xt_p ?guard p =
                Fusion.Host_fused.xt_p ~pool ~variant ?guard ~alpha:0.75 xs p
              in
              List.iter
                (fun (what, y, z) ->
                  same_unhealthy
                    (msg ("sparse " ^ what))
                    (scan (sparse y z))
                    (unhealthy (fun () -> sparse ~guard:point y z)))
                [
                  ("y", poison ys [ (333, Float.nan) ], zs);
                  ( "z",
                    ys,
                    poison zs [ (650, Float.infinity); (420, Float.nan) ] );
                ];
              List.iter
                (fun (what, y, z) ->
                  same_unhealthy
                    (msg ("dense " ^ what))
                    (scan (dense y z))
                    (unhealthy (fun () -> dense ~guard:point y z)))
                [
                  ("y", poison yd [ (7, Float.nan) ], zd);
                  ("z", yd, poison zd [ (290, Float.nan); (261, Float.nan) ]);
                ];
              let bad_p = poison vs [ (399, Float.nan) ] in
              same_unhealthy (msg "xt_p") (scan (xt_p bad_p))
                (unhealthy (fun () -> xt_p ~guard:point bad_p));
              Alcotest.(check bool) (msg "clean sparse bits") true
                (same_bits (sparse ~guard:point ys zs) (sparse ys zs));
              Alcotest.(check bool) (msg "clean dense bits") true
                (same_bits (dense ~guard:point yd zd) (dense yd zd)))
            [ Fusion.Host_fused.Dense_acc; Fusion.Host_fused.Blocked ])
        (List.map Lazy.force [ pool1; pool2; pool4 ]))

(* Through the executor: a NaN in [y] poisons every engine alike, so the
   recovery chain ends at the reference floor and raises what
   [Guard.check_vec] raises on the reference output, for [pattern] and
   [xt_y], sparse and dense, on both variants and every pool size.
   [checked] is true only with guards on and no fault rule active, and
   one poisoned output is healed by the host retry with the clean
   bits. *)
let test_eq1_executor_guard () =
  let xs, ys, vs, zs, xd, yd, vd, zd = finish_inputs () in
  let bad v i =
    let v = Array.copy v in
    v.(i) <- Float.nan;
    v
  in
  let engine = Fusion.Executor.Host in
  let with_variant variant f =
    let saved = Sys.getenv_opt "KF_HOST_VARIANT" in
    Unix.putenv "KF_HOST_VARIANT" (Fusion.Host_fused.variant_name variant);
    Fun.protect
      ~finally:(fun () ->
        Unix.putenv "KF_HOST_VARIANT" (Option.value saved ~default:""))
      f
  in
  let expect msg op reference run =
    let want =
      unhealthy (fun () ->
          Kf_resil.Guard.check_vec
            ~point:("executor." ^ op ^ ".reference")
            reference)
    in
    same_unhealthy msg want (unhealthy run)
  in
  Kf_resil.Guard.with_enabled true (fun () ->
      List.iter
        (fun pool ->
          List.iter
            (fun variant ->
              with_variant variant @@ fun () ->
              let msg s =
                Printf.sprintf "%s, %s, %d domains" s
                  (Fusion.Host_fused.variant_name variant)
                  (Par.Pool.size pool)
              in
              Alcotest.(check bool) (msg "variant forced") true
                (Astring.String.is_infix
                   ~affix:(Fusion.Host_fused.variant_name variant)
                   (Fusion.Executor.pattern ~engine ~pool device (Sparse xs)
                      ~y:ys ~alpha:1.0 ())
                    .Fusion.Executor.engine_used);
              let ys' = bad ys 333 and yd' = bad yd 7 in
              expect (msg "pattern sparse") "pattern"
                (Blas.pattern_sparse ~alpha:0.75 xs ~v:vs ys' ~beta:(-0.5)
                   ~z:zs ())
                (fun () ->
                  Fusion.Executor.pattern ~engine ~pool device (Sparse xs)
                    ~y:ys' ~v:vs ~beta_z:(-0.5, zs) ~alpha:0.75 ());
              expect (msg "pattern dense") "pattern"
                (Blas.pattern_dense ~alpha:0.75 xd ~v:vd yd' ~beta:(-0.5)
                   ~z:zd ())
                (fun () ->
                  Fusion.Executor.pattern ~engine ~pool device (Dense xd)
                    ~y:yd' ~v:vd ~beta_z:(-0.5, zd) ~alpha:0.75 ());
              let vs' = bad vs 399 and vd' = bad vd 89 in
              let reference_xt x p =
                let w = Blas.gemv_t x p in
                Vec.scal 0.75 w;
                w
              in
              let xt_sparse = Blas.csrmv_t xs vs' in
              Vec.scal 0.75 xt_sparse;
              expect (msg "xt_y sparse") "xt_y" xt_sparse (fun () ->
                  Fusion.Executor.xt_y ~engine ~pool device (Sparse xs) vs'
                    ~alpha:0.75);
              expect (msg "xt_y dense") "xt_y" (reference_xt xd vd')
                (fun () ->
                  Fusion.Executor.xt_y ~engine ~pool device (Dense xd) vd'
                    ~alpha:0.75))
            [ Fusion.Host_fused.Dense_acc; Fusion.Host_fused.Blocked ])
        (List.map Lazy.force [ pool1; pool2; pool4 ]);
      let pool = Lazy.force pool2 in
      let run () =
        Fusion.Executor.pattern ~engine ~pool device (Sparse xs) ~y:ys ~v:vs
          ~beta_z:(-0.5, zs) ~alpha:0.75 ()
      in
      let xt () =
        Fusion.Executor.xt_y ~engine ~pool device (Sparse xs) vs ~alpha:0.75
      in
      let xt_dense () =
        Fusion.Executor.xt_y ~engine ~pool device (Dense xd) vd ~alpha:0.75
      in
      let pattern_dense () =
        Fusion.Executor.pattern ~engine ~pool device (Dense xd) ~y:yd ~v:vd
          ~beta_z:(-0.5, zd) ~alpha:0.75 ()
      in
      let checked f = (f ()).Fusion.Executor.checked in
      (* "no fault rule" explicitly: the CI chaos matrix sets KF_FAULTS
         for the whole suite *)
      let no_faults f = Kf_resil.Fault.with_config "" f in
      Alcotest.(check bool) "guards on: pattern checked in the kernel" true
        (no_faults (fun () -> checked run));
      Alcotest.(check bool) "guards on: xt_y checked in the kernel" true
        (no_faults (fun () -> checked xt));
      Alcotest.(check bool) "guards on: dense xt_y checked in the kernel" true
        (no_faults (fun () -> checked xt_dense));
      Alcotest.(check bool) "guards on: dense pattern checked in the kernel"
        true
        (no_faults (fun () -> checked pattern_dense));
      Alcotest.(check bool) "guards off: dense xt_y not checked" false
        (Kf_resil.Guard.with_enabled false (fun () -> checked xt_dense));
      (* alpha folded into the owners' writes, checked in the kernel:
         the bits of gemv_t scaled by alpha, on every pool *)
      let want = Blas.gemv_t xd vd in
      Vec.scal 0.75 want;
      List.iter
        (fun pool ->
          let r =
            no_faults (fun () ->
                Fusion.Executor.xt_y ~engine ~pool device (Dense xd) vd
                  ~alpha:0.75)
          in
          Alcotest.(check bool)
            (Printf.sprintf "dense xt_y bits, %d domains" (Par.Pool.size pool))
            true
            (r.Fusion.Executor.checked && same_bits want r.Fusion.Executor.w))
        (List.map Lazy.force [ pool1; pool2; pool4 ]);
      Alcotest.(check bool) "fault rule active: scanned after poisoning" false
        (Kf_resil.Fault.with_config "nan:after=1000" (fun () -> checked run));
      Alcotest.(check bool) "guards off: not checked" false
        (Kf_resil.Guard.with_enabled false (fun () -> checked run));
      let clean = no_faults run in
      let healed =
        Kf_resil.Fault.with_config "nan:after=0:times=1" (fun () -> run ())
      in
      Alcotest.(check string) "healed on the host engine"
        clean.Fusion.Executor.engine_used healed.Fusion.Executor.engine_used;
      Alcotest.(check bool) "healed result has the clean bits" true
        (same_bits clean.Fusion.Executor.w healed.Fusion.Executor.w))

(* A steady-state LR-CG iteration on the host engine allocates no
   vector: the fused level-1 passes and the finish pass write in place,
   so the major heap grows by less than one [cols]-vector per
   iteration. *)
let test_lr_iteration_allocates_no_vector () =
  let rng = Rng.create 29 in
  let rows = 3000 and cols = 2000 in
  let x = Gen.sparse_uniform rng ~rows ~cols ~density:0.004 in
  let targets = Gen.vector rng rows in
  List.iter
    (fun pool ->
      let now () =
        Gc.minor ();
        (Gc.quick_stat ()).Gc.major_words
      in
      let major_words iterations =
        let before = now () in
        let r =
          Kf_ml.Linreg_cg.fit ~engine:Fusion.Executor.Host ~pool
            ~max_iterations:iterations ~tolerance:0.0 device (Sparse x)
            ~targets
        in
        Alcotest.(check int) "ran every iteration" iterations
          r.Kf_ml.Linreg_cg.iterations;
        now () -. before
      in
      ignore (major_words 1);
      let per_iteration = (major_words 9 -. major_words 1) /. 8.0 in
      if per_iteration >= float_of_int cols then
        Alcotest.failf "%d domains: %.0f major words per iteration, one w is %d"
          (Par.Pool.size pool) per_iteration cols)
    (List.map Lazy.force [ pool1; pool2 ])

let suite =
  [
    QCheck_alcotest.to_alcotest test_sparse_matches;
    QCheck_alcotest.to_alcotest test_dense_matches;
    QCheck_alcotest.to_alcotest test_xt_p_matches;
    QCheck_alcotest.to_alcotest test_par_blas_matches;
    QCheck_alcotest.to_alcotest test_blocked_tile_sizes;
    Alcotest.test_case "degenerate shapes across variants" `Quick
      test_degenerate_shapes;
    Alcotest.test_case "executor Host engine" `Quick test_executor_host_engine;
    Alcotest.test_case "accumulator budget switches variant" `Quick
      test_host_variant_auto_switch;
    Alcotest.test_case "blocked kernel reports tile stats" `Quick
      test_blocked_stats_counters;
    Alcotest.test_case "LR-CG end-to-end on host" `Quick test_session_host_lr;
    QCheck_alcotest.to_alcotest test_workspace_alternating_shapes;
    Alcotest.test_case "scratch: steady state allocates nothing" `Quick
      test_workspace_steady_state;
    Alcotest.test_case "pattern ?out is the result, bit for bit" `Quick
      test_pattern_out;
    Alcotest.test_case "dense-acc bits pinned across pools" `Quick
      test_dense_acc_bits_pinned;
    Alcotest.test_case "eq1 host kernels guard their output" `Quick
      test_eq1_kernel_guard;
    Alcotest.test_case "eq1 ops guard and recover" `Quick
      test_eq1_executor_guard;
    Alcotest.test_case "LR-CG host iteration allocates no vector" `Quick
      test_lr_iteration_allocates_no_vector;
  ]

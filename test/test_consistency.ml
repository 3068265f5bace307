(* Combinatorial consistency: every pattern instantiation must produce
   the same numbers through every execution path — every engine (fused,
   library, host, dist), sparse or dense layout, any device, resident
   or streamed.
   This is the repository's strongest single guarantee: whatever the
   dispatcher decides, the mathematics cannot change. *)
open Matrix
open Gpu_sim

let devices = [ Device.gtx_titan; Device.tesla_k20x; Device.gtx_680 ]
let device0 = Device.gtx_titan

let case seed ~rows ~cols =
  let rng = Rng.create seed in
  let sparse = Gen.sparse_uniform rng ~rows ~cols ~density:0.15 in
  let dense = Csr.to_dense sparse in
  let y = Gen.vector rng cols in
  let v = Gen.vector rng rows in
  let z = Gen.vector rng cols in
  (sparse, dense, y, v, z)

(* the five instantiations of Table 1 as argument shapes *)
let instantiations (v, z) =
  [
    ("X^T(Xy)", None, None);
    ("X^T(v.(Xy))", Some v, None);
    ("X^T(Xy)+bz", None, Some (0.7, z));
    ("full", Some v, Some (0.7, z));
  ]

let pool1 = lazy (Par.Pool.create ~size:1 ())
let pool2 = lazy (Par.Pool.create ~size:2 ())

let with_variant variant f =
  match variant with
  | None -> f ()
  | Some v ->
      let saved = Sys.getenv_opt "KF_HOST_VARIANT" in
      Unix.putenv "KF_HOST_VARIANT" v;
      Fun.protect
        ~finally:(fun () ->
          Unix.putenv "KF_HOST_VARIANT" (Option.value saved ~default:""))
        f

(* Every engine of [Executor.engines] as the grid runs it: Host on one
   and two domains (and forced to [Blocked] on two), Dist on a
   two-worker cluster. *)
let engine_configs cluster =
  List.concat_map
    (fun engine ->
      match engine with
      | Fusion.Executor.Host ->
          [
            (engine, Some (Lazy.force pool1), None, None);
            (engine, Some (Lazy.force pool2), None, None);
            (engine, Some (Lazy.force pool2), None, Some "blocked");
          ]
      | Fusion.Executor.Dist -> [ (engine, None, Some cluster, None) ]
      | Fusion.Executor.Fused | Fusion.Executor.Library ->
          [ (engine, None, None, None) ])
    Fusion.Executor.engines

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* Each engine's written contract against the sequential reference: the
   simulated engines agree to 1e-7, Host and Dist to 1e-9, and Dist's
   x_y, a row-disjoint gather of reference rows, bit for bit. *)
let agree ~engine ?(exact = false) label want got =
  let ok =
    if exact then same_bits want got
    else
      let tol = if Fusion.Executor.simulated engine then 1e-7 else 1e-9 in
      Vec.approx_equal ~tol want got
  in
  Alcotest.(check bool) label true ok

(* Equation 1's three ops, sparse and dense, against the sequential
   reference on the same layout. *)
let eq1_cell ~engine ?pool ?cluster ~shape (sparse, dense, y, v, z) =
  List.iter
    (fun (layout, input) ->
      let label op (r : Fusion.Executor.result) =
        Printf.sprintf "%s %s %s / %s" op layout shape r.engine_used
      in
      let r =
        Fusion.Executor.xt_y ~engine ?pool ?cluster device0 input v ~alpha:1.3
      in
      let want =
        match input with
        | Fusion.Executor.Sparse x -> Blas.csrmv_t x v
        | Fusion.Executor.Dense x -> Blas.gemv_t x v
      in
      Vec.scal 1.3 want;
      agree ~engine (label "xt_y" r) want r.w;
      let r = Fusion.Executor.x_y ~engine ?pool ?cluster device0 input y in
      let want =
        match input with
        | Fusion.Executor.Sparse x -> Blas.csrmv x y
        | Fusion.Executor.Dense x -> Blas.gemv x y
      in
      let exact = engine = Fusion.Executor.Dist in
      agree ~engine ~exact (label "x_y" r) want r.w;
      List.iter
        (fun (name, v', beta_z) ->
          let beta = Option.map fst beta_z and z = Option.map snd beta_z in
          let r =
            Fusion.Executor.pattern ~engine ?pool ?cluster device0 input ~y
              ?v:v' ?beta_z ~alpha:1.3 ()
          in
          let want =
            match input with
            | Fusion.Executor.Sparse x ->
                Blas.pattern_sparse ~alpha:1.3 x ?v:v' y ?beta ?z ()
            | Fusion.Executor.Dense x ->
                Blas.pattern_dense ~alpha:1.3 x ?v:v' y ?beta ?z ()
          in
          agree ~engine (label ("pattern " ^ name) r) want r.w)
        (instantiations (v, z)))
    [
      ("sparse", Fusion.Executor.Sparse sparse);
      ("dense", Fusion.Executor.Dense dense);
    ]

(* The graph ops on an [n x n] graph and [n x 8] embeddings. *)
let graph_cell ~engine ?pool ~shape (g, h) =
  let data (m : Fusion.Executor.mat_result) =
    match m.m_value with
    | Fusion.Executor.Dense z -> z.Dense.data
    | Fusion.Executor.Sparse s -> s.Csr.values
  in
  let label op (m : Fusion.Executor.mat_result) =
    Printf.sprintf "%s %s / %s" op shape m.m_engine_used
  in
  List.iter
    (fun (inst, semiring) ->
      let m =
        Fusion.Executor.fusedmm ~engine ?pool ~semiring device0 inst g h
      in
      agree ~engine
        (label ("fusedmm " ^ Fusion.Fusedmm.inst_key inst) m)
        (Fusion.Fusedmm.fused ~semiring inst g h).Dense.data (data m))
    [
      (Fusion.Fusedmm.Sddmm_spmm, Fusion.Semiring.sigmoid);
      (Fusion.Fusedmm.Spmm, Fusion.Semiring.plain);
    ];
  let m = Fusion.Executor.sddmm ~engine ?pool device0 g h in
  agree ~engine (label "sddmm" m)
    (Fusion.Fusedmm.sddmm g h).Csr.values (data m);
  let m = Fusion.Executor.spmm ~engine ?pool device0 g h in
  agree ~engine (label "spmm" m) (Fusion.Fusedmm.spmm g h).Dense.data (data m)

let test_engine_layout_grid () =
  let sparse, dense, y, v, z = case 42 ~rows:120 ~cols:30 in
  List.iter
    (fun (name, v', beta_z) ->
      (* reference on the sparse layout *)
      let beta = Option.map fst beta_z and zz = Option.map snd beta_z in
      let expected =
        Blas.pattern_sparse ~alpha:1.3 sparse ?v:v' y ?beta ?z:zz ()
      in
      List.iter
        (fun device ->
          List.iter
            (fun engine ->
              List.iter
                (fun input ->
                  let r =
                    Fusion.Executor.pattern ~engine device input ~y ?v:v'
                      ?beta_z ~alpha:1.3 ()
                  in
                  let label =
                    Printf.sprintf "%s / %s / %s" name
                      device.Device.name r.Fusion.Executor.engine_used
                  in
                  Alcotest.(check bool) label true
                    (Vec.approx_equal ~tol:1e-7 r.Fusion.Executor.w expected))
                [ Fusion.Executor.Sparse sparse; Fusion.Executor.Dense dense ])
            [ Fusion.Executor.Fused; Fusion.Executor.Library ])
        devices)
    (instantiations (v, z));
  (* Every engine on every op, for a narrow shape and one wider than
     [Par.Pool.parallel_for]'s 256-element cutoff, so that the host
     finish pass and the graph row pass run on the pool. *)
  let eq1_shapes =
    [
      ("120x30", case 42 ~rows:120 ~cols:30);
      ("80x300", case 45 ~rows:80 ~cols:300);
    ]
  in
  let graph_shapes =
    List.map
      (fun (n, seed) ->
        let rng = Rng.create seed in
        ( Printf.sprintf "%d nodes" n,
          ( Gen.sparse_uniform rng ~rows:n ~cols:n ~density:0.03,
            Gen.dense rng ~rows:n ~cols:8 ) ))
      [ (40, 46); (300, 47) ]
  in
  let cluster = Kf_dist.Cluster.create ~workers:2 () in
  Fun.protect ~finally:(fun () -> Kf_dist.Cluster.shutdown cluster) @@ fun () ->
  List.iter
    (fun (engine, pool, cluster, variant) ->
      with_variant variant @@ fun () ->
      List.iter
        (fun (shape, c) -> eq1_cell ~engine ?pool ?cluster ~shape c)
        eq1_shapes;
      List.iter
        (fun (shape, c) -> graph_cell ~engine ?pool ~shape c)
        graph_shapes)
    (engine_configs cluster)

let test_streamed_equals_resident () =
  let sparse, _, y, v, z = case 43 ~rows:400 ~cols:25 in
  List.iter
    (fun (name, v', beta_z) ->
      let resident, _, _ =
        Fusion.Fused_sparse.pattern Device.gtx_titan sparse ~y ?v:v' ?beta_z
          ~alpha:2.0 ()
      in
      let streamed =
        Fusion.Streaming.pattern
          ~device_budget_bytes:(Csr.bytes sparse / 5)
          Device.gtx_titan sparse ~y ?v:v' ?beta_z ~alpha:2.0 ()
      in
      Alcotest.(check bool) name true
        (Vec.approx_equal ~tol:1e-7 resident streamed.Fusion.Streaming.w))
    (instantiations (v, z))

let test_script_equals_executor () =
  (* the DML route through the interpreter's recogniser must agree with a
     direct Executor call on the very same instantiation *)
  let sparse, _, y, v, z = case 44 ~rows:150 ~cols:20 in
  let input = Fusion.Executor.Sparse sparse in
  let direct =
    Fusion.Executor.pattern Device.gtx_titan input ~y ~v ~beta_z:(0.7, z)
      ~alpha:1.3 ()
  in
  let open Sysml.Script in
  let program =
    [
      Assign
        ( "w",
          Add
            ( Mul
                ( Const 1.3,
                  Matmul (T (Var "X"), Mul (Var "v", Matmul (Var "X", Var "y")))
                ),
              Mul (Const 0.7, Var "z") ) );
    ]
  in
  let r =
    eval Device.gtx_titan
      ~inputs:
        [ ("X", Matrix input); ("y", Vector y); ("v", Vector v); ("z", Vector z) ]
      program
  in
  Alcotest.(check bool) "script = executor" true
    (Vec.approx_equal ~tol:1e-9 (lookup_vector r "w") direct.Fusion.Executor.w)

let prop_grid_random =
  QCheck.Test.make ~name:"random shapes: engines and layouts agree" ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let rows = 20 + Rng.int rng 150 in
      let cols = 4 + Rng.int rng 60 in
      let sparse, dense, y, v, z = case (seed + 7) ~rows ~cols in
      let f input engine =
        (Fusion.Executor.pattern ~engine Device.gtx_titan input ~y ~v
           ~beta_z:(0.5, z) ~alpha:1.1 ())
          .Fusion.Executor.w
      in
      let reference = f (Sparse sparse) Fusion.Executor.Fused in
      List.for_all
        (Vec.approx_equal ~tol:1e-7 reference)
        [
          f (Sparse sparse) Fusion.Executor.Library;
          f (Dense dense) Fusion.Executor.Fused;
          f (Dense dense) Fusion.Executor.Library;
        ])

let suite =
  [
    Alcotest.test_case "engine x layout x device grid" `Quick
      test_engine_layout_grid;
    Alcotest.test_case "streamed = resident (all instantiations)" `Quick
      test_streamed_equals_resident;
    Alcotest.test_case "script = executor" `Quick test_script_equals_executor;
    QCheck_alcotest.to_alcotest prop_grid_random;
  ]

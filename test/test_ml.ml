(* ML algorithms: convergence to known solutions, engine equivalence,
   and the pattern traces that regenerate Table 1. *)
open Matrix
open Gpu_sim

let device = Device.gtx_titan

let well_conditioned_problem seed ~rows ~cols =
  let rng = Rng.create seed in
  let x = Gen.dense rng ~rows ~cols in
  let truth = Gen.vector rng cols in
  let targets = Blas.gemv x truth in
  (Fusion.Executor.Dense x, targets, truth)

let sparse_problem seed ~rows ~cols ~density =
  let rng = Rng.create seed in
  let x = Gen.sparse_uniform rng ~rows ~cols ~density in
  let truth = Gen.vector rng cols in
  let targets = Blas.csrmv x truth in
  (Fusion.Executor.Sparse x, targets, truth)

(* --- Linear regression CG --- *)

let test_lr_recovers_planted_dense () =
  let input, targets, truth = well_conditioned_problem 1 ~rows:400 ~cols:30 in
  let r = Kf_ml.Linreg_cg.fit ~eps:1e-10 device input ~targets in
  Alcotest.(check bool) "recovers planted weights" true
    (Vec.max_abs_diff r.Kf_ml.Linreg_cg.weights truth < 1e-4)

let test_lr_recovers_planted_sparse () =
  let input, targets, truth =
    sparse_problem 2 ~rows:800 ~cols:60 ~density:0.2
  in
  let r = Kf_ml.Linreg_cg.fit ~eps:1e-10 device input ~targets in
  Alcotest.(check bool) "recovers planted weights" true
    (Vec.max_abs_diff r.Kf_ml.Linreg_cg.weights truth < 1e-4)

let test_lr_engines_agree () =
  let input, targets, _ = sparse_problem 3 ~rows:500 ~cols:40 ~density:0.2 in
  let f = Kf_ml.Linreg_cg.fit ~engine:Fusion.Executor.Fused device input ~targets in
  let l = Kf_ml.Linreg_cg.fit ~engine:Fusion.Executor.Library device input ~targets in
  Alcotest.(check bool) "same weights" true
    (Vec.approx_equal ~tol:1e-6 f.Kf_ml.Linreg_cg.weights
       l.Kf_ml.Linreg_cg.weights);
  Alcotest.(check bool) "fused is faster" true
    (f.Kf_ml.Linreg_cg.gpu_ms < l.Kf_ml.Linreg_cg.gpu_ms)

let test_lr_cpu_matches_gpu () =
  let input, targets, _ = sparse_problem 4 ~rows:400 ~cols:30 ~density:0.2 in
  let g = Kf_ml.Linreg_cg.fit device input ~targets in
  let c = Kf_ml.Linreg_cg.fit_cpu input ~targets in
  Alcotest.(check bool) "same solution" true
    (Vec.approx_equal ~tol:1e-6 g.Kf_ml.Linreg_cg.weights
       c.Kf_ml.Linreg_cg.cpu_weights);
  Alcotest.(check int) "same iterations" g.Kf_ml.Linreg_cg.iterations
    c.Kf_ml.Linreg_cg.cpu_iterations

let test_lr_trace_matches_table1 () =
  let input, targets, _ = sparse_problem 5 ~rows:300 ~cols:25 ~density:0.2 in
  let r = Kf_ml.Linreg_cg.fit device input ~targets in
  let insts = Fusion.Pattern.Trace.instantiations r.Kf_ml.Linreg_cg.trace in
  (* Listing 1 exercises X^T y (init) and X^T(Xy)+eps p (loop) *)
  Alcotest.(check bool) "uses Xt_y" true
    (List.mem Fusion.Pattern.Xt_y insts);
  Alcotest.(check bool) "uses Xt_X_y_plus_z" true
    (List.mem Fusion.Pattern.Xt_X_y_plus_z insts);
  Alcotest.(check bool) "no Hadamard stage" true
    (not (List.mem Fusion.Pattern.Xt_v_X_y insts))

let test_lr_iteration_cap () =
  let input, targets, _ = sparse_problem 6 ~rows:300 ~cols:100 ~density:0.1 in
  let r = Kf_ml.Linreg_cg.fit ~max_iterations:3 device input ~targets in
  Alcotest.(check bool) "capped" true (r.Kf_ml.Linreg_cg.iterations <= 3)

let test_lr_rejects_bad_targets () =
  let input, _, _ = sparse_problem 7 ~rows:100 ~cols:10 ~density:0.2 in
  Alcotest.check_raises "wrong target length"
    (Invalid_argument "Linreg_cg.fit: one target per row required") (fun () ->
      ignore (Kf_ml.Linreg_cg.fit device input ~targets:[| 1.0 |]))

(* --- GLM --- *)

let test_glm_fits_poisson () =
  let rng = Rng.create 8 in
  let rows = 500 and cols = 8 in
  let x = Gen.dense rng ~rows ~cols in
  let truth = Array.init cols (fun i -> 0.2 *. float_of_int (i mod 3 - 1)) in
  let eta = Blas.gemv x truth in
  (* deterministic "counts": the conditional mean itself, rounded *)
  let targets = Array.map (fun e -> Float.round (exp e)) eta in
  let r = Kf_ml.Glm.fit device (Dense x) ~targets in
  Alcotest.(check bool) "converged near truth" true
    (Vec.max_abs_diff r.Kf_ml.Glm.weights truth < 0.2);
  Alcotest.(check bool) "deviance finite" true
    (Float.is_finite r.Kf_ml.Glm.deviance)

let test_glm_trace () =
  let rng = Rng.create 9 in
  let x = Gen.sparse_uniform rng ~rows:300 ~cols:20 ~density:0.3 in
  let targets = Array.init 300 (fun i -> float_of_int (i mod 4)) in
  let r = Kf_ml.Glm.fit device (Sparse x) ~targets in
  let insts = Fusion.Pattern.Trace.instantiations r.Kf_ml.Glm.trace in
  Alcotest.(check bool) "uses Xt_y" true (List.mem Fusion.Pattern.Xt_y insts);
  Alcotest.(check bool) "uses the weighted product" true
    (List.mem Fusion.Pattern.Xt_v_X_y insts)

let test_glm_rejects_negative () =
  let rng = Rng.create 10 in
  let x = Gen.dense rng ~rows:10 ~cols:3 in
  Alcotest.check_raises "negative counts"
    (Invalid_argument "Glm.fit: invalid target for the poisson family") (fun () ->
      ignore (Kf_ml.Glm.fit device (Dense x) ~targets:(Array.make 10 (-1.0))))

(* --- LogReg --- *)

let separable_classification seed ~rows ~cols =
  let rng = Rng.create seed in
  let x = Gen.dense rng ~rows ~cols in
  let truth = Gen.vector rng cols in
  let labels =
    Array.map (fun z -> if z >= 0.0 then 1.0 else -1.0) (Blas.gemv x truth)
  in
  (Fusion.Executor.Dense x, labels)

let test_logreg_high_accuracy () =
  let input, labels = separable_classification 11 ~rows:400 ~cols:10 in
  let r = Kf_ml.Logreg.fit ~lambda:0.01 device input ~labels in
  Alcotest.(check bool) "accuracy > 95%" true
    (r.Kf_ml.Logreg.accuracy > 0.95)

let test_logreg_trace_full_pattern () =
  let input, labels = separable_classification 12 ~rows:200 ~cols:8 in
  let r = Kf_ml.Logreg.fit ~lambda:1.0 device input ~labels in
  let insts = Fusion.Pattern.Trace.instantiations r.Kf_ml.Logreg.trace in
  Alcotest.(check bool) "regularised fit ticks the full pattern" true
    (List.mem Fusion.Pattern.Full_pattern insts);
  let r0 = Kf_ml.Logreg.fit ~lambda:0.0 device input ~labels in
  let insts0 = Fusion.Pattern.Trace.instantiations r0.Kf_ml.Logreg.trace in
  Alcotest.(check bool) "unregularised fit ticks Xt_v_X_y" true
    (List.mem Fusion.Pattern.Xt_v_X_y insts0)

let test_logreg_loss_decreases () =
  let input, labels = separable_classification 13 ~rows:300 ~cols:12 in
  let r1 = Kf_ml.Logreg.fit ~newton_iterations:1 device input ~labels in
  let r8 = Kf_ml.Logreg.fit ~newton_iterations:8 device input ~labels in
  Alcotest.(check bool) "more Newton steps, lower loss" true
    (r8.Kf_ml.Logreg.loss <= r1.Kf_ml.Logreg.loss +. 1e-9)

(* --- SVM --- *)

let test_svm_separates () =
  let input, labels = separable_classification 14 ~rows:300 ~cols:10 in
  let r = Kf_ml.Svm.fit ~lambda:0.1 device input ~labels in
  Alcotest.(check bool) "accuracy > 95%" true (r.Kf_ml.Svm.accuracy > 0.95);
  Alcotest.(check bool) "support set shrinks" true
    (r.Kf_ml.Svm.support_vectors < 300)

let test_svm_trace_no_hadamard () =
  let input, labels = separable_classification 15 ~rows:200 ~cols:8 in
  let r = Kf_ml.Svm.fit device input ~labels in
  let insts = Fusion.Pattern.Trace.instantiations r.Kf_ml.Svm.trace in
  Alcotest.(check bool) "uses Xt_y" true (List.mem Fusion.Pattern.Xt_y insts);
  Alcotest.(check bool) "uses Xt_X_y_plus_z" true
    (List.mem Fusion.Pattern.Xt_X_y_plus_z insts);
  Alcotest.(check bool) "never the Hadamard rows (Table 1)" true
    (not (List.mem Fusion.Pattern.Xt_v_X_y insts)
    && not (List.mem Fusion.Pattern.Full_pattern insts))

let test_svm_sparse () =
  let rng = Rng.create 16 in
  let x = Gen.sparse_uniform rng ~rows:400 ~cols:30 ~density:0.2 in
  let truth = Gen.vector rng 30 in
  let labels =
    Array.map (fun z -> if z >= 0.0 then 1.0 else -1.0) (Blas.csrmv x truth)
  in
  let r = Kf_ml.Svm.fit ~lambda:0.1 device (Sparse x) ~labels in
  Alcotest.(check bool) "sparse svm accuracy" true
    (r.Kf_ml.Svm.accuracy > 0.9)

(* --- HITS --- *)

let test_hits_star_graph () =
  (* edges: every node 1..n-1 points to node 0 -> node 0 is the authority *)
  let n = 20 in
  let entries = List.init (n - 1) (fun i -> (i + 1, 0, 1.0)) in
  let a = Csr.of_coo (Coo.create ~rows:n ~cols:n entries) in
  let r = Kf_ml.Hits.run device a in
  let auth = r.Kf_ml.Hits.authorities in
  Alcotest.(check (float 1e-6)) "hub of the star" 1.0 auth.(0);
  for i = 1 to n - 1 do
    Alcotest.(check (float 1e-6)) "others zero" 0.0 auth.(i)
  done

let test_hits_converges_to_eigenvector () =
  let rng = Rng.create 17 in
  let a = Kf_ml.Dataset.adjacency rng ~nodes:100 ~out_degree:5 in
  let r = Kf_ml.Hits.run ~iterations:200 device a in
  (* a converged authority vector is a fixed point of normalised A^T A *)
  let next = Blas.csrmv_t a (Blas.csrmv a r.Kf_ml.Hits.authorities) in
  let nn = Vec.nrm2 next in
  Vec.scal (1.0 /. nn) next;
  Alcotest.(check bool) "fixed point" true
    (Vec.max_abs_diff next r.Kf_ml.Hits.authorities < 1e-5)

let test_hits_trace () =
  let rng = Rng.create 18 in
  let a = Kf_ml.Dataset.adjacency rng ~nodes:50 ~out_degree:4 in
  let r = Kf_ml.Hits.run device a in
  let insts = Fusion.Pattern.Trace.instantiations r.Kf_ml.Hits.trace in
  Alcotest.(check bool) "Xt_y + Xt_X_y exactly (Table 1)" true
    (insts = [ Fusion.Pattern.Xt_y; Fusion.Pattern.Xt_X_y ])

let test_hits_requires_square () =
  let rng = Rng.create 19 in
  let a = Gen.sparse_uniform rng ~rows:10 ~cols:12 ~density:0.2 in
  Alcotest.check_raises "square only"
    (Invalid_argument "Hits.run: adjacency matrix must be square") (fun () ->
      ignore (Kf_ml.Hits.run device a))

(* --- Dataset --- *)

let test_dataset_shapes () =
  let rng = Rng.create 20 in
  let kdd = Kf_ml.Dataset.kdd_like ~scale:0.001 rng in
  Alcotest.(check bool) "kdd ultra-sparse" true
    (match kdd.Kf_ml.Dataset.features with
    | Fusion.Executor.Sparse x -> Csr.density x < 0.01
    | Fusion.Executor.Dense _ -> false);
  let higgs = Kf_ml.Dataset.higgs_like ~scale:0.001 rng in
  Alcotest.(check int) "higgs has 28 columns" 28
    (Fusion.Executor.cols higgs.Kf_ml.Dataset.features)

let test_classification_targets () =
  Alcotest.(check (array (float 0.0))) "signs" [| 1.0; -1.0; 1.0 |]
    (Kf_ml.Dataset.classification_targets [| 0.5; -2.0; 0.0 |])

(* --- Algorithm API: registry and batched prediction --- *)

let test_registry_names () =
  Alcotest.(check (list string)) "eight algorithms, CLI order"
    [
      "lr";
      "glm";
      "logreg";
      "multinomial";
      "svm";
      "hits";
      "graphemb";
      "pagerank";
    ]
    Kf_ml.Registry.names;
  List.iter
    (fun n ->
      let (module A : Kf_ml.Algorithm.S) = Kf_ml.Registry.find n in
      Alcotest.(check string) "find returns the named module" n A.name)
    Kf_ml.Registry.names;
  Alcotest.(check bool) "find_opt misses cleanly" true
    (Option.is_none (Kf_ml.Registry.find_opt "nope"));
  match Kf_ml.Registry.find "nope" with
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "error names the available algorithms" true
        (Astring.String.is_infix ~affix:"multinomial" msg)
  | _ -> Alcotest.fail "expected Invalid_argument"

(* Weights an algorithm's scorer accepts, built directly: multinomial
   carries one vector per class, GLM carries its family field. *)
let algo_weights (module A : Kf_ml.Algorithm.S) rng ~cols =
  let vecs =
    match A.name with
    | "multinomial" -> Array.init 3 (fun _ -> Gen.vector rng cols)
    | _ -> [| Gen.vector rng cols |]
  in
  let extra =
    match A.name with
    | "glm" -> [ ("model.family", Kf_resil.Ckpt.Str "poisson") ]
    | "multinomial" -> [ ("model.classes", Kf_resil.Ckpt.Int 3) ]
    | _ -> []
  in
  { Kf_ml.Algorithm.vecs; cols; extra }

(* The serving contract: scoring a block of rows as one batched
   executor call agrees with scoring each row alone through the
   sequential reference, for every registered algorithm. *)
let prop_batched_predict_agrees =
  QCheck.Test.make ~name:"batched predict = per-row predict (all algorithms)"
    ~count:20
    QCheck.(pair (int_range 0 100_000) (pair (int_range 1 40) (int_range 1 24)))
    (fun (seed, (rows, cols)) ->
      let rng = Rng.create seed in
      let x = Gen.dense rng ~rows ~cols in
      List.for_all
        (fun (module A : Kf_ml.Algorithm.S) ->
          let w = algo_weights (module A) rng ~cols in
          let batched, _ =
            Kf_ml.Algorithm.predict_exec
              (module A)
              ~engine:Fusion.Executor.Fused device w (Dense x)
          in
          Array.length batched = rows
          && Array.for_all
               (fun i ->
                 let alone =
                   Kf_ml.Algorithm.predict
                     (module A)
                     w
                     (Dense (Dense.of_arrays [| Dense.row x i |]))
                 in
                 Float.abs (batched.(i) -. alone.(0)) <= 1e-9)
               (Array.init rows Fun.id))
        Kf_ml.Registry.all)

let test_multinomial_csr_dense_agree () =
  let rng = Rng.create 21 in
  let rows = 120 and cols = 30 in
  let xs = Gen.sparse_uniform rng ~rows ~cols ~density:0.2 in
  let xd = Csr.to_dense xs in
  let algo = Kf_ml.Registry.find "multinomial" in
  let w = algo_weights algo rng ~cols in
  let via_sparse = Kf_ml.Algorithm.predict algo w (Sparse xs) in
  let via_dense = Kf_ml.Algorithm.predict algo w (Dense xd) in
  Alcotest.(check bool) "class indices agree across layouts" true
    (via_sparse = via_dense);
  let batched, _ =
    Kf_ml.Algorithm.predict_exec algo device w (Sparse xs)
  in
  Alcotest.(check bool) "batched executor path agrees too" true
    (Array.for_all2 (fun a b -> Float.abs (a -. b) <= 1e-9) batched via_dense)

(* LR-CG on a fixed problem, pinned to the values the copying
   (allocate-per-op) solver produced: the in-place iteration must not
   change a bit of the weights on any engine, nor the simulated device
   time and launch count the paper's numbers come from. *)
let pin_problem () = sparse_problem 21 ~rows:600 ~cols:48 ~density:0.1

let test_lr_pinned () =
  let input, targets, _ = pin_problem () in
  let fit ?pool engine =
    Kf_ml.Linreg_cg.fit ~engine ?pool device input ~targets
  in
  let checksum (r : Kf_ml.Linreg_cg.result) =
    Kf_resil.Ckpt.checksum_floats r.weights
  in
  List.iter
    (fun (engine, sum, ms, launches) ->
      let name = Fusion.Executor.engine_to_string engine in
      let r = fit engine in
      Alcotest.(check int) (name ^ " iterations") 12 r.iterations;
      Alcotest.(check string) (name ^ " weights checksum") sum (checksum r);
      Alcotest.(check string) (name ^ " gpu_ms") ms
        (Printf.sprintf "%h" r.gpu_ms);
      Alcotest.(check int) (name ^ " launches") launches r.launches)
    [
      (Fusion.Executor.Fused, "82f02ca919c1025a", "0x1.eaabf2a394dbcp-2", 87);
      ( Fusion.Executor.Library,
        "8ae2ef85b468b61c",
        "0x1.3b71fd957f396p+0",
        137 );
    ];
  List.iter
    (fun (size, sum) ->
      let pool = Par.Pool.create ~size () in
      Fun.protect
        ~finally:(fun () -> Par.Pool.shutdown pool)
        (fun () ->
          Alcotest.(check string)
            (Printf.sprintf "host d=%d weights checksum" size)
            sum
            (checksum (fit ~pool Fusion.Executor.Host))))
    [
      (1, "41e5d427ea97e23f");
      (2, "17383ce6b462c8b7");
      (4, "b7eb05429240d9f8");
    ]

(* Host time is measured wall-clock only: level-1 work charges no
   simulated cuBLAS time or launches, so every millisecond is an
   executor op's (here all pattern ops). *)
let test_lr_host_time_is_wall_clock () =
  let input, targets, _ = pin_problem () in
  let r =
    Kf_ml.Linreg_cg.fit ~engine:Fusion.Executor.Host device input ~targets
  in
  Alcotest.(check int) "no simulated launches" 0 r.launches;
  Alcotest.(check (float 0.0)) "gpu_ms = pattern_ms" r.pattern_ms r.gpu_ms

let suite =
  [
    Alcotest.test_case "LR recovers planted (dense)" `Quick
      test_lr_recovers_planted_dense;
    Alcotest.test_case "LR recovers planted (sparse)" `Quick
      test_lr_recovers_planted_sparse;
    Alcotest.test_case "LR engines agree" `Quick test_lr_engines_agree;
    Alcotest.test_case "LR cpu = gpu" `Quick test_lr_cpu_matches_gpu;
    Alcotest.test_case "LR trace (Table 1)" `Quick test_lr_trace_matches_table1;
    Alcotest.test_case "LR iteration cap" `Quick test_lr_iteration_cap;
    Alcotest.test_case "LR input validation" `Quick test_lr_rejects_bad_targets;
    Alcotest.test_case "LR pinned weights and simulated time" `Quick
      test_lr_pinned;
    Alcotest.test_case "LR host time is wall-clock only" `Quick
      test_lr_host_time_is_wall_clock;
    Alcotest.test_case "GLM fits Poisson" `Slow test_glm_fits_poisson;
    Alcotest.test_case "GLM trace (Table 1)" `Quick test_glm_trace;
    Alcotest.test_case "GLM input validation" `Quick test_glm_rejects_negative;
    Alcotest.test_case "LogReg accuracy" `Quick test_logreg_high_accuracy;
    Alcotest.test_case "LogReg trace (Table 1)" `Quick
      test_logreg_trace_full_pattern;
    Alcotest.test_case "LogReg loss decreases" `Quick
      test_logreg_loss_decreases;
    Alcotest.test_case "SVM separates" `Quick test_svm_separates;
    Alcotest.test_case "SVM trace (Table 1)" `Quick test_svm_trace_no_hadamard;
    Alcotest.test_case "SVM sparse" `Quick test_svm_sparse;
    Alcotest.test_case "HITS star graph" `Quick test_hits_star_graph;
    Alcotest.test_case "HITS fixed point" `Quick
      test_hits_converges_to_eigenvector;
    Alcotest.test_case "HITS trace (Table 1)" `Quick test_hits_trace;
    Alcotest.test_case "HITS requires square" `Quick test_hits_requires_square;
    Alcotest.test_case "dataset shapes" `Quick test_dataset_shapes;
    Alcotest.test_case "classification targets" `Quick
      test_classification_targets;
    Alcotest.test_case "registry resolves every algorithm" `Quick
      test_registry_names;
    QCheck_alcotest.to_alcotest prop_batched_predict_agrees;
    Alcotest.test_case "multinomial CSR = dense" `Quick
      test_multinomial_csr_dense_agree;
  ]

(* Unit and property tests for the vector substrate. *)
open Matrix

let check_float = Alcotest.(check (float 1e-12))

let test_create_zeroed () =
  let v = Vec.create 5 in
  Alcotest.(check int) "length" 5 (Array.length v);
  Array.iter (fun x -> check_float "zero" 0.0 x) v

let test_scal () =
  let v = [| 1.0; -2.0; 3.5 |] in
  Vec.scal 2.0 v;
  Alcotest.(check (array (float 1e-12))) "scaled" [| 2.0; -4.0; 7.0 |] v

let test_scal_zero () =
  let v = [| 1.0; 2.0 |] in
  Vec.scal 0.0 v;
  Alcotest.(check (array (float 1e-12))) "zeroed" [| 0.0; 0.0 |] v

let test_axpy () =
  let x = [| 1.0; 2.0 |] and y = [| 10.0; 20.0 |] in
  Vec.axpy 3.0 x y;
  Alcotest.(check (array (float 1e-12))) "axpy" [| 13.0; 26.0 |] y

let test_axpy_mismatch () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Vec.axpy: length mismatch (2 vs 3)") (fun () ->
      Vec.axpy 1.0 [| 1.0; 2.0 |] [| 1.0; 2.0; 3.0 |])

let test_dot () =
  check_float "dot" 32.0 (Vec.dot [| 1.0; 2.0; 3.0 |] [| 4.0; 5.0; 6.0 |])

let test_dot_empty () = check_float "empty dot" 0.0 (Vec.dot [||] [||])

let test_nrm2 () = check_float "3-4-5" 5.0 (Vec.nrm2 [| 3.0; 4.0 |])

let test_sum () = check_float "sum" 6.0 (Vec.sum [| 1.0; 2.0; 3.0 |])

let test_mul_elementwise () =
  Alcotest.(check (array (float 1e-12)))
    "hadamard" [| 4.0; 10.0 |]
    (Vec.mul_elementwise [| 1.0; 2.0 |] [| 4.0; 5.0 |])

let test_add_sub () =
  let a = [| 1.0; 2.0 |] and b = [| 3.0; 5.0 |] in
  Alcotest.(check (array (float 1e-12))) "add" [| 4.0; 7.0 |] (Vec.add a b);
  Alcotest.(check (array (float 1e-12))) "sub" [| -2.0; -3.0 |] (Vec.sub a b)

let test_max_abs_diff () =
  check_float "diff" 2.5
    (Vec.max_abs_diff [| 1.0; 0.0 |] [| 1.0; 2.5 |])

let test_approx_equal () =
  Alcotest.(check bool) "equal" true
    (Vec.approx_equal [| 1.0 |] [| 1.0 +. 1e-12 |]);
  Alcotest.(check bool) "not equal" false
    (Vec.approx_equal [| 1.0 |] [| 1.1 |]);
  Alcotest.(check bool) "length mismatch" false
    (Vec.approx_equal [| 1.0 |] [| 1.0; 2.0 |])

(* Properties *)

let vec_gen = QCheck.(array_of_size Gen.(1 -- 40) (float_range (-100.) 100.))

let prop_dot_commutative =
  QCheck.Test.make ~name:"dot commutative" ~count:200
    QCheck.(pair vec_gen vec_gen)
    (fun (x, y) ->
      let n = Stdlib.min (Array.length x) (Array.length y) in
      let x = Array.sub x 0 n and y = Array.sub y 0 n in
      Float.abs (Vec.dot x y -. Vec.dot y x) <= 1e-9)

let prop_nrm2_nonneg =
  QCheck.Test.make ~name:"nrm2 non-negative" ~count:200 vec_gen (fun x ->
      Vec.nrm2 x >= 0.0)

let prop_axpy_linear =
  QCheck.Test.make ~name:"axpy(a,x,0) = a*x" ~count:200
    QCheck.(pair (float_range (-10.) 10.) vec_gen)
    (fun (a, x) ->
      let y = Vec.create (Array.length x) in
      Vec.axpy a x y;
      Vec.approx_equal ~tol:1e-9 y (Vec.scale a x))

let prop_triangle_inequality =
  QCheck.Test.make ~name:"triangle inequality" ~count:200
    QCheck.(pair vec_gen vec_gen)
    (fun (x, y) ->
      let n = Stdlib.min (Array.length x) (Array.length y) in
      let x = Array.sub x 0 n and y = Array.sub y 0 n in
      Vec.nrm2 (Vec.add x y) <= Vec.nrm2 x +. Vec.nrm2 y +. 1e-6)

(* The fused CG passes against the composed calls they replace, bit for
   bit: [Vec] directly, and [Session] on the host engine (257 elements
   is past the pool's inline cutoff, so a two-domain pool splits the
   direction update) and on the simulated engine, where the cuBLAS
   charges must also be the composition's. *)
let fused_case =
  QCheck.make
    ~print:(fun (n, seed, a, b) ->
      Printf.sprintf "n=%d seed=%d a=%h b=%h" n seed a b)
    QCheck.Gen.(
      let* n = oneofl [ 0; 1; 3; 4; 257 ] in
      let* seed = int_bound 100_000 in
      let* a = float_range (-4.0) 4.0 in
      let* b = float_range (-4.0) 4.0 in
      return (n, seed, a, b))

let fused_pool = lazy (Par.Pool.create ~size:2 ())

let prop_fused_cg_passes =
  QCheck.Test.make ~name:"fused CG passes == composed Vec calls" ~count:100
    fused_case (fun (n, seed, a, b) ->
      let rng = Rng.create seed in
      let vec () = Array.init n (fun _ -> Rng.float rng 200.0 -. 100.0) in
      let x = vec () and y = vec () and u = vec () and v = vec () in
      let bits a b =
        Array.length a = Array.length b
        && Array.for_all2
             (fun p q -> Int64.bits_of_float p = Int64.bits_of_float q)
             a b
      in
      let same_float p q = Int64.bits_of_float p = Int64.bits_of_float q in
      (* y <- a x + y; v <- a u + v; v . v *)
      let y0 = Array.copy y and v0 = Array.copy v in
      Vec.axpy a x y0;
      Vec.axpy a u v0;
      let d0 = Vec.dot v0 v0 in
      (* v <- a x + b v, as CG's p <- -r + beta p *)
      let p0 = Array.copy v in
      Vec.scal b p0;
      Vec.axpy a x p0;
      let device = Gpu_sim.Device.gtx_titan in
      let session engine =
        Kf_ml.Session.create ~engine ~pool:(Lazy.force fused_pool) device
          ~algorithm:"LR"
      in
      let fused ~axpy2_dot ~axpby =
        let y1 = Array.copy y and v1 = Array.copy v and p1 = Array.copy v in
        let d1 = axpy2_dot a x y1 u v1 in
        axpby a x b p1;
        bits y1 y0 && bits v1 v0 && same_float d1 d0 && bits p1 p0
      in
      let vec_ok =
        fused ~axpy2_dot:Vec.axpy2_dot ~axpby:(fun a x b y ->
            Vec.axpby ~lo:0 ~hi:(Array.length y) a x b y)
      in
      let host = session Fusion.Executor.Host in
      let host_ok =
        fused
          ~axpy2_dot:(Kf_ml.Session.axpy2_dot host)
          ~axpby:(Kf_ml.Session.axpby_inplace host)
      in
      let sim = session Fusion.Executor.Fused in
      let sim_ok =
        fused
          ~axpy2_dot:(Kf_ml.Session.axpy2_dot sim)
          ~axpby:(Kf_ml.Session.axpby_inplace sim)
      in
      let composed = session Fusion.Executor.Fused in
      let y2 = Array.copy y and v2 = Array.copy v and p2 = Array.copy v in
      Kf_ml.Session.axpy_inplace composed a x y2;
      Kf_ml.Session.axpy_inplace composed a u v2;
      ignore (Kf_ml.Session.dot composed v2 v2);
      Kf_ml.Session.scal_inplace composed b p2;
      Kf_ml.Session.axpy_inplace composed a x p2;
      vec_ok && host_ok && sim_ok
      && same_float (Kf_ml.Session.gpu_ms sim) (Kf_ml.Session.gpu_ms composed)
      && Kf_ml.Session.launches sim = Kf_ml.Session.launches composed
      && Kf_ml.Session.launches host = 0)


let suite =
  [
    Alcotest.test_case "create is zeroed" `Quick test_create_zeroed;
    Alcotest.test_case "scal" `Quick test_scal;
    Alcotest.test_case "scal by zero" `Quick test_scal_zero;
    Alcotest.test_case "axpy" `Quick test_axpy;
    Alcotest.test_case "axpy mismatch raises" `Quick test_axpy_mismatch;
    Alcotest.test_case "dot" `Quick test_dot;
    Alcotest.test_case "dot of empty" `Quick test_dot_empty;
    Alcotest.test_case "nrm2" `Quick test_nrm2;
    Alcotest.test_case "sum" `Quick test_sum;
    Alcotest.test_case "mul_elementwise" `Quick test_mul_elementwise;
    Alcotest.test_case "add/sub" `Quick test_add_sub;
    Alcotest.test_case "max_abs_diff" `Quick test_max_abs_diff;
    Alcotest.test_case "approx_equal" `Quick test_approx_equal;
    QCheck_alcotest.to_alcotest prop_dot_commutative;
    QCheck_alcotest.to_alcotest prop_nrm2_nonneg;
    QCheck_alcotest.to_alcotest prop_axpy_linear;
    QCheck_alcotest.to_alcotest prop_triangle_inequality;
    QCheck_alcotest.to_alcotest prop_fused_cg_passes;
  ]

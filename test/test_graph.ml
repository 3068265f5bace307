(* The fusedmm pattern family (SDDMM ⊕ SpMM over a semiring): the
   semiring laws the fused kernels rely on, differential agreement of
   the fused chain with the unfused composition on every engine and
   pool size, the family registry round-trips, the engine-name parser,
   and the plan compiler's enumeration/selection of fused graph
   candidates. *)
open Matrix
module Script = Sysml.Script
module Compiler = Kf_plan.Compiler
module Executor = Fusion.Executor
module Semiring = Fusion.Semiring
module Fusedmm = Fusion.Fusedmm
module PF = Fusion.Pattern_family

let device = Gpu_sim.Device.gtx_titan

(* ---- shared inputs ----------------------------------------------------- *)

let graph ~seed ~nodes ~out_degree =
  Kf_ml.Dataset.adjacency (Rng.create seed) ~nodes ~out_degree

let embedding ~seed ~nodes ~dim = Gen.dense (Rng.create seed) ~rows:nodes ~cols:dim

(* Host pools are shared across cases (spawning domains per case would
   dominate the run). *)
let pool1 = lazy (Par.Pool.create ~size:1 ())

let pool2 = lazy (Par.Pool.create ~size:2 ())

let pool4 = lazy (Par.Pool.create ~size:4 ())

let engine_cases () =
  [
    (Executor.Fused, None);
    (Executor.Library, None);
    (Executor.Host, Some (Lazy.force pool1));
    (Executor.Host, Some (Lazy.force pool2));
    (Executor.Host, Some (Lazy.force pool4));
  ]

let case_name engine pool =
  match pool with
  | None -> Executor.engine_to_string engine
  | Some p ->
      Printf.sprintf "%s/%d domains"
        (Executor.engine_to_string engine)
        (Par.Pool.size p)

let check_close ~msg ~tol (a : Dense.t) (b : Dense.t) =
  Alcotest.(check int) (msg ^ ": rows") a.Dense.rows b.Dense.rows;
  Alcotest.(check int) (msg ^ ": cols") a.Dense.cols b.Dense.cols;
  Array.iteri
    (fun i x ->
      let y = b.Dense.data.(i) in
      if Float.abs (x -. y) > tol then
        Alcotest.failf "%s: element %d differs: %.17g vs %.17g" msg i x y)
    a.Dense.data

(* ---- semiring laws (qcheck) -------------------------------------------- *)

(* The fused kernels merge per-domain / per-block partials in arbitrary
   order, so [op] must be associative and commutative with a neutral
   identity, and [edge] must be a pure function. *)

let finite_float = QCheck.float_range (-1e6) 1e6

let prop_op_assoc_comm =
  QCheck.Test.make ~name:"op is associative and commutative" ~count:300
    QCheck.(triple finite_float finite_float finite_float)
    (fun (a, b, c) ->
      List.for_all
        (fun sr ->
          let ( + ) = Semiring.combine sr in
          a + b = b + a && a + (b + c) = a + b + c
          || (* Sum is only associative to rounding *)
          sr.Semiring.op = Semiring.Sum
          && Float.abs ((a + (b + c)) -. (a + b + c))
             <= 1e-9 *. Float.max 1.0 (Float.abs (a + b + c)))
        Semiring.all)

let prop_op_identity =
  QCheck.Test.make ~name:"identity is neutral for op" ~count:300 finite_float
    (fun a ->
      List.for_all
        (fun sr ->
          let id = Semiring.identity sr in
          Semiring.combine sr a id = a && Semiring.combine sr id a = a)
        Semiring.all)

let prop_edge_pure =
  QCheck.Test.make ~name:"edge is pure and finite on finite input"
    ~count:300 finite_float (fun x ->
      List.for_all
        (fun sr ->
          let a = Semiring.apply_edge sr x and b = Semiring.apply_edge sr x in
          a = b && Float.is_finite a)
        Semiring.all)

let prop_sigmoid_stable =
  QCheck.Test.make ~name:"sigmoid edge is bounded and stable" ~count:300
    (QCheck.float_range (-1e8) 1e8)
    (fun x ->
      let y = Semiring.logistic x in
      Float.is_finite y && y >= 0.0 && y <= 1.0)

(* ---- differential: fused vs unfused, all engines ------------------------ *)

(* The oracle is the sequential unfused composition; every engine's
   fused chain must agree within 1e-9.  (The sequential fused kernel is
   additionally bit-identical, which [test_fusion] does not cover —
   asserted exactly here.) *)

let test_fused_bit_identical () =
  let g = graph ~seed:11 ~nodes:60 ~out_degree:6 in
  let h = embedding ~seed:12 ~nodes:60 ~dim:7 in
  List.iter
    (fun sr ->
      let unfused = Fusedmm.spmm ~semiring:sr (Fusedmm.sddmm ~semiring:sr g h) h in
      let fused = Fusedmm.fused ~semiring:sr Fusedmm.Sddmm_spmm g h in
      check_close ~msg:("bit-identical " ^ sr.Semiring.name) ~tol:0.0 unfused
        fused)
    Semiring.all

let test_engines_agree () =
  let g = graph ~seed:21 ~nodes:80 ~out_degree:5 in
  let h = embedding ~seed:22 ~nodes:80 ~dim:9 in
  List.iter
    (fun sr ->
      let oracle =
        Fusedmm.spmm ~semiring:sr (Fusedmm.sddmm ~semiring:sr g h) h
      in
      List.iter
        (fun (engine, pool) ->
          List.iter
            (fun inst ->
              let oracle =
                match inst with
                | Fusedmm.Sddmm_spmm -> oracle
                | Fusedmm.Spmm -> Fusedmm.spmm ~semiring:sr g h
              in
              let r = Executor.fusedmm ~engine ?pool ~semiring:sr device inst g h in
              let z =
                match r.Executor.m_value with
                | Executor.Dense d -> d
                | Executor.Sparse _ -> Alcotest.fail "fusedmm returned sparse"
              in
              check_close
                ~msg:
                  (Printf.sprintf "%s %s %s" (case_name engine pool)
                     sr.Semiring.name (Fusedmm.inst_key inst))
                ~tol:1e-9 oracle z)
            Fusedmm.instantiations)
        (engine_cases ()))
    Semiring.all

let test_sddmm_engines_agree () =
  let g = graph ~seed:31 ~nodes:50 ~out_degree:4 in
  let h = embedding ~seed:32 ~nodes:50 ~dim:6 in
  List.iter
    (fun sr ->
      let oracle = Fusedmm.sddmm ~semiring:sr g h in
      List.iter
        (fun (engine, pool) ->
          let r = Executor.sddmm ~engine ?pool ~semiring:sr device g h in
          match r.Executor.m_value with
          | Executor.Sparse s ->
              Alcotest.(check int) "nnz" (Csr.nnz oracle) (Csr.nnz s);
              Array.iteri
                (fun i x ->
                  if Float.abs (x -. s.Csr.values.(i)) > 1e-9 then
                    Alcotest.failf "sddmm %s %s: value %d differs"
                      (case_name engine pool) sr.Semiring.name i)
                oracle.Csr.values
          | Executor.Dense _ -> Alcotest.fail "sddmm returned dense")
        (engine_cases ()))
    Semiring.all

let prop_differential_random_graphs =
  (* random shapes/degrees/semirings, fused (sim) and host vs unfused
     oracle *)
  QCheck.Test.make ~name:"fused agrees with unfused on random graphs"
    ~count:40
    QCheck.(
      quad (int_range 1 40) (int_range 1 8) (int_range 1 12) (int_range 0 2))
    (fun (nodes, out_degree, dim, sri) ->
      let sr = List.nth Semiring.all sri in
      let out_degree = min out_degree nodes in
      let g = graph ~seed:(nodes + (7 * out_degree)) ~nodes ~out_degree in
      let h = embedding ~seed:(dim + 3) ~nodes ~dim in
      let oracle =
        Fusedmm.spmm ~semiring:sr (Fusedmm.sddmm ~semiring:sr g h) h
      in
      List.for_all
        (fun (engine, pool) ->
          let r =
            Executor.fusedmm ~engine ?pool ~semiring:sr device
              Fusedmm.Sddmm_spmm g h
          in
          match r.Executor.m_value with
          | Executor.Dense z ->
              Array.for_all2
                (fun a b -> Float.abs (a -. b) <= 1e-9)
                oracle.Dense.data z.Dense.data
          | Executor.Sparse _ -> false)
        [
          (Executor.Fused, None);
          (Executor.Host, Some (Lazy.force pool1));
          (Executor.Host, Some (Lazy.force pool2));
        ])

(* ---- host kernel chunk boundaries --------------------------------------- *)

(* The host kernel walks each row's edges in chunks of 32, so rows of
   degree 0, 1, 31, 32, 33 and 101 put a row on each side of every chunk
   boundary; dims 1, 3, 4, 5, 8 and 13 do the same for the 4-way
   unrolled dot and axpy.  Row r has degree [degs.(r mod 6)], with
   distinct columns and weights of both signs (so maxpool sees negative
   scaled rows).  [n] must exceed 101; at the default 128 rows every
   pool runs the pass inline, from 256 rows pools of two or more
   domains run it in parallel chunks. *)
let hub_graph ?(n = 128) () =
  let degs = [| 0; 1; 31; 32; 33; 101 |] in
  let rng = Rng.create 61 in
  let rows =
    Array.init n (fun r ->
        List.init degs.(r mod 6) (fun t -> ((r * 37) + (t * 7)) mod n)
        |> List.sort compare |> Array.of_list)
  in
  let row_off = Array.make (n + 1) 0 in
  Array.iteri
    (fun r cols -> row_off.(r + 1) <- row_off.(r) + Array.length cols)
    rows;
  let col_idx = Array.concat (Array.to_list rows) in
  let values = Array.map (fun _ -> Rng.float rng 2.0 -. 1.0) col_idx in
  Csr.create ~rows:n ~cols:n ~values ~col_idx ~row_off

(* [run pool] on every host pool must give the same bits, and those must
   be within 1e-9 of [oracle]. *)
let check_host_pools ~msg ~oracle run =
  let results =
    List.map
      (fun pool -> (pool, run pool))
      (List.map Lazy.force [ pool1; pool2; pool4 ])
  in
  let _, first = List.hd results in
  List.iter
    (fun (pool, r) ->
      let msg = Printf.sprintf "%s, %d domains" msg (Par.Pool.size pool) in
      Array.iteri
        (fun i x ->
          if Int64.bits_of_float x <> Int64.bits_of_float first.(i) then
            Alcotest.failf "%s: element %d is %h, %h on 1 domain" msg i x
              first.(i);
          if Float.abs (x -. oracle.(i)) > 1e-9 then
            Alcotest.failf "%s: element %d is %.17g, oracle %.17g" msg i x
              oracle.(i))
        r)
    results

let test_host_chunk_boundaries () =
  let g = hub_graph () in
  List.iter
    (fun dim ->
      let h = embedding ~seed:(70 + dim) ~nodes:g.Csr.rows ~dim in
      List.iter
        (fun sr ->
          let name = Printf.sprintf "%s dim %d" sr.Semiring.name dim in
          List.iter
            (fun inst ->
              let oracle =
                match inst with
                | Fusedmm.Sddmm_spmm ->
                    Fusedmm.spmm ~semiring:sr
                      (Fusedmm.sddmm ~semiring:sr g h)
                      h
                | Fusedmm.Spmm -> Fusedmm.spmm ~semiring:sr g h
              in
              check_host_pools
                ~msg:(name ^ " " ^ Fusedmm.inst_key inst)
                ~oracle:oracle.Dense.data (fun pool ->
                  (Fusion.Host_fused.fusedmm ~pool ~semiring:sr inst g h)
                    .Dense.data))
            Fusedmm.instantiations;
          check_host_pools ~msg:(name ^ " sddmm")
            ~oracle:(Fusedmm.sddmm ~semiring:sr g h).Csr.values (fun pool ->
              (Fusion.Host_fused.sddmm ~pool ~semiring:sr g h).Csr.values))
        Semiring.all)
    [ 1; 3; 4; 5; 8; 13 ]

(* ---- pinned graph-embedding weights ------------------------------------- *)

(* The problem [kf train -a graphemb --max-iterations 2 -m 2000] trains
   (seed 42): the pins are that command's weights checksums, so a kernel
   change that moves a single bit of the embedding shows here.  The host
   kernel is row-disjoint, so the domain count must not change a bit. *)
let test_graphemb_pinned () =
  let rng = Rng.create 42 in
  let nodes = 2000 in
  let g = Kf_ml.Dataset.adjacency rng ~nodes ~out_degree:8 in
  let h0 = Gen.dense rng ~rows:nodes ~cols:Kf_ml.Graphemb.default_dim in
  let pins ?pool engine =
    let r = Kf_ml.Graphemb.run ~engine ?pool ~iterations:2 device g h0 in
    let h = r.Kf_ml.Graphemb.embedding in
    (* the model's weight vectors are the embedding's columns *)
    let col c = Array.init h.Dense.rows (fun r -> Dense.get h r c) in
    ( Kf_resil.Ckpt.checksum_floats (Array.concat (List.init h.Dense.cols col)),
      Printf.sprintf "%h" r.Kf_ml.Graphemb.delta )
  in
  let check name (sum, delta) (sum', delta') =
    Alcotest.(check string) (name ^ ": weights") sum sum';
    Alcotest.(check string) (name ^ ": delta") delta delta'
  in
  check "host, 1 domain"
    ("d3030f830bf35243", "0x1.0b055c05ec78ep+0")
    (pins ~pool:(Lazy.force pool1) Executor.Host);
  check "host, 2 domains"
    ("d3030f830bf35243", "0x1.0b055c05ec78ep+0")
    (pins ~pool:(Lazy.force pool2) Executor.Host);
  check "fused"
    ("8f3b018a9baf0733", "0x1.0b055c05ec78ep+0")
    (pins Executor.Fused)

(* ---- guard and fault recovery on graph ops ------------------------------ *)

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

let bits_equal msg (a : float array) (b : float array) =
  Alcotest.(check int) (msg ^ ": length") (Array.length b) (Array.length a);
  Array.iteri
    (fun i x ->
      if Int64.bits_of_float x <> Int64.bits_of_float b.(i) then
        Alcotest.failf "%s: element %d is %h, want %h" msg i x b.(i))
    a

let dense_value (r : Executor.mat_result) =
  match r.Executor.m_value with
  | Executor.Dense d -> d
  | Executor.Sparse _ -> Alcotest.fail "expected a dense result"

(* A NaN in [h] poisons every engine's output alike, so the recovery
   chain ends at the reference floor, and the executor must raise what
   [Guard.check_vec] raises on the reference output.  A single poisoned
   output is healed by the retry on the same engine, with the clean
   bits. *)
let test_graph_guard_and_recovery () =
  let g = graph ~seed:91 ~nodes:64 ~out_degree:5 in
  let h = embedding ~seed:92 ~nodes:64 ~dim:6 in
  let bad = Dense.copy h in
  Dense.set bad 59 5 Float.nan;
  Dense.set bad 3 0 Float.nan;
  let engine = Executor.Host and pool = Lazy.force pool2 in
  let sr = Semiring.sigmoid and inst = Fusedmm.Sddmm_spmm in
  Kf_resil.Guard.with_enabled true (fun () ->
      let expect op reference run =
        let want =
          unhealthy (fun () ->
              Kf_resil.Guard.check_vec
                ~point:("executor." ^ op ^ ".reference")
                reference)
        in
        same_unhealthy op want (unhealthy run)
      in
      expect "fusedmm"
        (Fusedmm.fused ~semiring:sr inst g bad).Dense.data (fun () ->
          Executor.fusedmm ~engine ~pool ~semiring:sr device inst g bad);
      expect "sddmm" (Fusedmm.sddmm g bad).Csr.values (fun () ->
          Executor.sddmm ~engine ~pool device g bad);
      expect "spmm" (Fusedmm.spmm g bad).Dense.data (fun () ->
          Executor.spmm ~engine ~pool device g bad);
      let clean = Executor.fusedmm ~engine ~pool ~semiring:sr device inst g h in
      let healed =
        Kf_resil.Fault.with_config "nan:after=0:times=1" (fun () ->
            Executor.fusedmm ~engine ~pool ~semiring:sr device inst g h)
      in
      Alcotest.(check string)
        "healed on the host engine" clean.Executor.m_engine_used
        healed.Executor.m_engine_used;
      bits_equal "healed result" (dense_value healed).Dense.data
        (dense_value clean).Dense.data)

(* 512 nodes: rows 0-63 have 400 edges each, the others one, and node
   511 is a neighbour of rows 60 and 500 only.  On a parallel pool the
   light chunks finish long before the heavy first one, so the row
   found bad first in time (500) is not the first in index order
   (60). *)
let skewed_graph () =
  let n = 512 in
  let rows =
    Array.init n (fun r ->
        let deg = if r < 64 then 400 else 1 in
        let cols = List.init deg (fun t -> (r + 1 + t) mod (n - 1)) in
        let cols = if r = 60 || r = 500 then (n - 1) :: cols else cols in
        Array.of_list (List.sort compare cols))
  in
  let row_off = Array.make (n + 1) 0 in
  Array.iteri
    (fun r cols -> row_off.(r + 1) <- row_off.(r) + Array.length cols)
    rows;
  let col_idx = Array.concat (Array.to_list rows) in
  let rng = Rng.create 97 in
  let values = Array.map (fun _ -> Rng.float rng 2.0 -. 1.0) col_idx in
  Csr.create ~rows:n ~cols:n ~values ~col_idx ~row_off

(* The host kernels check their rows as they write them: the exception
   is the one a scan of the unguarded result raises, on every pool
   size, and a clean result keeps its bits.  The executor trusts that
   check only with guards on and no fault rule active. *)
let test_graph_kernel_guard () =
  let g = skewed_graph () in
  let h = embedding ~seed:93 ~nodes:g.Csr.rows ~dim:16 in
  let bad = Dense.copy h in
  Dense.set bad 511 3 Float.nan;
  let point = "test.graph" in
  let scan v = unhealthy (fun () -> Kf_resil.Guard.check_vec ~point v) in
  Kf_resil.Guard.with_enabled true (fun () ->
      List.iter
        (fun pool ->
          let msg s = Printf.sprintf "%s, %d domains" s (Par.Pool.size pool) in
          let fused ?guard h =
            Fusion.Host_fused.fusedmm ~pool ~semiring:Semiring.sigmoid ?guard
              Fusedmm.Sddmm_spmm g h
          in
          let spmm ?guard h =
            Fusion.Host_fused.spmm ~pool ~semiring:Semiring.maxpool ?guard g h
          in
          let sddmm ?guard h = Fusion.Host_fused.sddmm ~pool ?guard g h in
          same_unhealthy (msg "fusedmm")
            (scan (fused bad).Dense.data)
            (unhealthy (fun () -> fused ~guard:point bad));
          same_unhealthy (msg "spmm")
            (scan (spmm bad).Dense.data)
            (unhealthy (fun () -> spmm ~guard:point bad));
          same_unhealthy (msg "sddmm")
            (scan (sddmm bad).Csr.values)
            (unhealthy (fun () -> sddmm ~guard:point bad));
          bits_equal (msg "clean fusedmm") (fused ~guard:point h).Dense.data
            (fused h).Dense.data;
          bits_equal (msg "clean sddmm") (sddmm ~guard:point h).Csr.values
            (sddmm h).Csr.values)
        (List.map Lazy.force [ pool1; pool2; pool4 ]);
      let checked () =
        (Executor.fusedmm ~engine:Executor.Host ~pool:(Lazy.force pool2)
           device Fusedmm.Sddmm_spmm g h)
          .Executor.m_checked
      in
      (* "no fault rule" explicitly: the CI chaos matrix sets KF_FAULTS
         for the whole suite *)
      Alcotest.(check bool)
        "guards on: checked in the kernel" true
        (Kf_resil.Fault.with_config "" checked);
      Alcotest.(check bool)
        "fault rule active: scanned after poisoning" false
        (Kf_resil.Fault.with_config "nan:after=1000" checked);
      Alcotest.(check bool)
        "guards off: not checked" false
        (Kf_resil.Guard.with_enabled false checked))

(* ---- the [?out] contract of the graph ops ------------------------------- *)

let nan_matrix rows cols = Dense.init rows cols (fun _ _ -> Float.nan)

let edgeless n =
  Csr.create ~rows:n ~cols:n ~values:[||] ~col_idx:[||]
    ~row_off:(Array.make (n + 1) 0)

let raises_invalid msg f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" msg
  | exception Invalid_argument _ -> ()

(* An [out] prefilled with NaN comes back holding the fresh result's
   bits — empty rows and degenerate shapes included — on the kernel and
   through the executor, and is the returned matrix itself.  Engines
   that cannot write in place copy into it, recovery paths included. *)
let test_graph_out_contract () =
  List.iter
    (fun (gname, g, dim) ->
      let n = g.Csr.rows in
      let h = embedding ~seed:95 ~nodes:n ~dim in
      List.iter
        (fun pool ->
          List.iter
            (fun sr ->
              List.iter
                (fun inst ->
                  let msg =
                    Printf.sprintf "%s dim %d %s %s, %d domains" gname dim
                      sr.Semiring.name (Fusedmm.inst_key inst)
                      (Par.Pool.size pool)
                  in
                  let fresh =
                    Fusion.Host_fused.fusedmm ~pool ~semiring:sr inst g h
                  in
                  let out = nan_matrix n dim in
                  let z =
                    Fusion.Host_fused.fusedmm ~pool ~semiring:sr ~out inst g h
                  in
                  Alcotest.(check bool) (msg ^ ": kernel returns out") true
                    (z == out);
                  bits_equal (msg ^ ": kernel") out.Dense.data fresh.Dense.data;
                  let out = nan_matrix n dim in
                  let r =
                    Executor.fusedmm ~engine:Executor.Host ~pool ~semiring:sr
                      ~out device inst g h
                  in
                  Alcotest.(check bool) (msg ^ ": executor returns out") true
                    (dense_value r == out);
                  bits_equal (msg ^ ": executor") out.Dense.data
                    fresh.Dense.data)
                Fusedmm.instantiations;
              let out = nan_matrix n dim in
              let r =
                Executor.spmm ~engine:Executor.Host ~pool ~semiring:sr ~out
                  device g h
              in
              Alcotest.(check bool) (gname ^ " spmm returns out") true
                (dense_value r == out);
              bits_equal (gname ^ " spmm") out.Dense.data
                (Fusion.Host_fused.spmm ~pool ~semiring:sr g h).Dense.data)
            Semiring.all)
        (List.map Lazy.force [ pool1; pool2; pool4 ]))
    [
      ("hub", hub_graph ~n:300 (), 5);
      ("nnz = 0", edgeless 300, 4);
      ("d = 0", hub_graph ~n:300 (), 0);
    ];
  let g = hub_graph ~n:300 () in
  let h = embedding ~seed:96 ~nodes:g.Csr.rows ~dim:5 in
  let pool = Lazy.force pool2 and sr = Semiring.sigmoid in
  raises_invalid "kernel out == h" (fun () ->
      Fusion.Host_fused.fusedmm ~pool ~out:h Fusedmm.Spmm g h);
  raises_invalid "executor out == h" (fun () ->
      Executor.fusedmm ~engine:Executor.Host ~pool ~out:h device Fusedmm.Spmm
        g h);
  raises_invalid "executor spmm out == h" (fun () ->
      Executor.spmm ~out:h device g h);
  raises_invalid "out of the wrong shape" (fun () ->
      Executor.fusedmm
        ~out:(Dense.create g.Csr.rows 4)
        device Fusedmm.Spmm g h);
  (* every launch of the host kernel fails: the Library fallback's
     result lands in [out]; with every launch failing, the reference
     floor's does *)
  let into spec =
    let out = nan_matrix g.Csr.rows 5 in
    let r =
      Kf_resil.Fault.with_config spec (fun () ->
          Executor.fusedmm ~engine:Executor.Host ~pool ~semiring:sr ~out device
            Fusedmm.Sddmm_spmm g h)
    in
    Alcotest.(check bool) (spec ^ ": returns out") true (dense_value r == out);
    (r.Executor.m_engine_used, out.Dense.data)
  in
  let library =
    Executor.fusedmm ~engine:Executor.Library ~semiring:sr device
      Fusedmm.Sddmm_spmm g h
  in
  let used, z = into "launch:every=1:point=host_fused" in
  Alcotest.(check string)
    "library fallback" library.Executor.m_engine_used used;
  bits_equal "library fallback into out" z (dense_value library).Dense.data;
  let used, z = into "launch:every=1" in
  Alcotest.(check string) "reference floor" "reference sequential fusedmm" used;
  bits_equal "reference floor into out" z
    (Fusedmm.fused ~semiring:sr Fusedmm.Sddmm_spmm g h).Dense.data

(* ---- steady-state allocation of a graphemb iteration -------------------- *)

(* After the first iteration a host GraphEmb iteration writes its
   attraction into the training's one [z]: the major heap grows by less
   than one [z] (nodes x dim words) per iteration. *)
let test_graphemb_steady_state () =
  let nodes = 2000 and dim = Kf_ml.Graphemb.default_dim in
  let rng = Rng.create 7 in
  let g = Kf_ml.Dataset.adjacency rng ~nodes ~out_degree:8 in
  let h0 = Gen.dense rng ~rows:nodes ~cols:dim in
  List.iter
    (fun pool ->
      (* a minor collection first flushes the domain's allocation
         tallies into the statistics *)
      let now () =
        Gc.minor ();
        (Gc.quick_stat ()).Gc.major_words
      in
      let major_words iterations =
        let before = now () in
        ignore
          (Kf_ml.Graphemb.run ~engine:Executor.Host ~pool ~iterations device g
             h0);
        now () -. before
      in
      ignore (major_words 1);
      let per_iteration = (major_words 5 -. major_words 1) /. 4.0 in
      if per_iteration >= float_of_int (nodes * dim) then
        Alcotest.failf "%d domains: %.0f major words per iteration, one z is %d"
          (Par.Pool.size pool) per_iteration (nodes * dim))
    (List.map Lazy.force [ pool1; pool2 ])

(* ---- dist fallback warns once per op ------------------------------------ *)

(* The dist engine has no graph kernels and falls back to the host ones.
   The fallback is permanent, so each op warns once per process, not once
   per call.  No earlier case in this binary runs a graph op on [Dist]. *)
let test_dist_fallback_warns_once () =
  let g = graph ~seed:81 ~nodes:30 ~out_degree:3 in
  let h = embedding ~seed:82 ~nodes:30 ~dim:4 in
  let pool = Lazy.force pool1 in
  let warnings = ref [] in
  let reporter =
    {
      Logs.report =
        (fun src level ~over k msgf ->
          msgf (fun ?header:_ ?tags:_ fmt ->
              Format.kasprintf
                (fun msg ->
                  if
                    level = Logs.Warning
                    && Logs.Src.name src = "fusion.executor"
                  then warnings := msg :: !warnings;
                  over ();
                  k ())
                fmt));
    }
  in
  let old_reporter = Logs.reporter () and old_level = Logs.level () in
  Logs.set_reporter reporter;
  Logs.set_level (Some Logs.Warning);
  Fun.protect
    ~finally:(fun () ->
      Logs.set_reporter old_reporter;
      Logs.set_level old_level)
    (fun () ->
      for _ = 1 to 3 do
        let engine = Executor.Dist in
        ignore (Executor.fusedmm ~engine ~pool device Fusedmm.Sddmm_spmm g h);
        ignore (Executor.sddmm ~engine ~pool device g h);
        ignore (Executor.spmm ~engine ~pool device g h)
      done);
  Alcotest.(check (list string))
    "one warning per op name over three runs"
    (List.map
       (Printf.sprintf "dist engine has no %s kernels; falling back to host")
       [ "fusedmm"; "sddmm"; "spmm" ])
    (List.rev !warnings)

(* ---- warp max reduction ------------------------------------------------- *)

let test_tree_reduce_max () =
  Alcotest.(check (float 0.0)) "max of 8" 9.5
    (Gpu_sim.Warp.tree_reduce_op ~op:Float.max
       [| 1.0; -2.0; 9.5; 0.0; 3.0; 9.4; -7.0; 2.0 |]
       ~width:8);
  Alcotest.(check (float 0.0)) "identity lanes" 4.0
    (Gpu_sim.Warp.tree_reduce_op ~op:Float.max
       [| neg_infinity; 4.0; neg_infinity; neg_infinity |]
       ~width:4)

(* ---- family registry ---------------------------------------------------- *)

let test_registry_round_trip () =
  let all = PF.all_instantiations () in
  Alcotest.(check bool) "eq1 and fusedmm both registered" true
    (List.exists (fun d -> d.PF.family = "eq1") all
    && List.exists (fun d -> d.PF.family = Fusedmm.family_id) all);
  (* eq1 registered first: checkpoints serialise counts positionally *)
  (match all with
  | d :: _ -> Alcotest.(check string) "eq1 leads" "eq1" d.PF.family
  | [] -> Alcotest.fail "no families registered");
  List.iter
    (fun d ->
      match PF.of_key (PF.key d) with
      | Some d' -> Alcotest.(check string) ("key " ^ PF.key d) d.PF.label d'.PF.label
      | None -> Alcotest.failf "of_key failed for %s" (PF.key d))
    all;
  Alcotest.(check (option reject)) "unknown key" None
    (PF.of_key "nosuch/family")

let test_fusedmm_descriptor_round_trip () =
  List.iter
    (fun sr ->
      List.iter
        (fun inst ->
          let d = Fusedmm.descriptor ~semiring:sr.Semiring.name inst in
          Alcotest.(check string) "family" Fusedmm.family_id d.PF.family;
          match Fusedmm.of_descriptor d with
          | Some (inst', sr') ->
              Alcotest.(check bool) "instantiation" true (inst = inst');
              Alcotest.(check string) "semiring" sr.Semiring.name
                sr'.Semiring.name
          | None -> Alcotest.failf "of_descriptor failed for %s" (PF.key d))
        Fusedmm.instantiations)
    Semiring.all;
  (* eq1 descriptors are not fusedmm's *)
  List.iter
    (fun inst ->
      Alcotest.(check bool) "eq1 rejected" true
        (Fusedmm.of_descriptor (Fusion.Pattern.descriptor inst) = None))
    Fusion.Pattern.all

(* ---- engine-name parsing ------------------------------------------------ *)

let test_engine_names () =
  List.iter
    (fun e ->
      let s = Executor.engine_to_string e in
      Alcotest.(check bool) ("round-trip " ^ s) true
        (Executor.engine_of_string s = Some e);
      Alcotest.(check bool) ("case/trim " ^ s) true
        (Executor.engine_of_string ("  " ^ String.uppercase_ascii s ^ " ")
        = Some e))
    Executor.engines;
  Alcotest.(check bool) "unknown" true (Executor.engine_of_string "cuda" = None);
  Alcotest.(check bool) "empty" true (Executor.engine_of_string "" = None)

let test_env_engine () =
  Alcotest.(check (result (option reject) string))
    "unset" (Ok None)
    (Result.map
       (Option.map (fun _ -> assert false))
       (Sysml.Env.engine_result "KF_TEST_GRAPH_UNSET"));
  Unix.putenv "KF_TEST_GRAPH_ENGINE" "Host";
  (match Sysml.Env.engine_result "KF_TEST_GRAPH_ENGINE" with
  | Ok (Some Executor.Host) -> ()
  | _ -> Alcotest.fail "KF_ENGINE-style parse failed");
  Unix.putenv "KF_TEST_GRAPH_ENGINE" "tpu";
  match Sysml.Env.engine_result "KF_TEST_GRAPH_ENGINE" with
  | Error msg ->
      Alcotest.(check bool) "uniform message" true
        (Astring.String.is_infix ~affix:"KF_TEST_GRAPH_ENGINE" msg)
  | Ok _ -> Alcotest.fail "malformed engine accepted"

(* ---- classify_shape: every shape ------------------------------------------ *)

let test_classify_shape () =
  let open Fusion.Pattern in
  List.iter
    (fun ((first_multiply, weighted, additive_tail), want) ->
      Alcotest.(check string)
        (Printf.sprintf "shape %b %b %b" first_multiply weighted additive_tail)
        (name want)
        (name (classify_shape { first_multiply; weighted; additive_tail })))
    [
      ((false, false, false), Xt_y); ((true, false, false), Xt_X_y);
      ((true, true, false), Xt_v_X_y); ((true, false, true), Xt_X_y_plus_z);
      ((true, true, true), Full_pattern);
    ]

(* ---- session trace and checkpoint round-trip ---------------------------- *)

let test_session_trace_and_checkpoint () =
  let g = graph ~seed:41 ~nodes:40 ~out_degree:4 in
  let h = embedding ~seed:42 ~nodes:40 ~dim:5 in
  let path = Filename.temp_file "kf_graph_ckpt" ".bin" in
  let session = Kf_ml.Session.create device ~algorithm:"graph-test" in
  Kf_ml.Session.set_checkpoint session ~path ~every:1;
  Kf_ml.Session.set_state_fn session (fun () -> []);
  Kf_ml.Session.iteration session (fun () ->
      ignore (Kf_ml.Session.fusedmm ~semiring:Semiring.sigmoid session
                Fusedmm.Sddmm_spmm g h);
      ignore (Kf_ml.Session.fusedmm ~semiring:Semiring.plain session
                Fusedmm.Spmm g h);
      ignore
        (Kf_ml.Session.xt_y session (Executor.Sparse g)
           (Array.make 40 1.0) ~alpha:1.0));
  let entries = Fusion.Pattern.Trace.entries (Kf_ml.Session.trace session) in
  let count key =
    match List.find_opt (fun (d, _) -> PF.key d = key) entries with
    | Some (_, n) -> n
    | None -> 0
  in
  Alcotest.(check int) "sigmoid chain traced" 1
    (count "fusedmm/sddmm_spmm:sigmoid");
  Alcotest.(check int) "plain floor traced" 1 (count "fusedmm/spmm:plain");
  Alcotest.(check int) "eq1 traced alongside" 1 (count "eq1/xt_y");
  (* the family counts survive a checkpoint round-trip *)
  let restored = Kf_ml.Session.create device ~algorithm:"graph-test" in
  ignore (Kf_ml.Session.resume restored ~path);
  let entries' = Fusion.Pattern.Trace.entries (Kf_ml.Session.trace restored) in
  Alcotest.(check bool) "trace round-trips" true (entries = entries');
  Sys.remove path

(* ---- plan compiler: enumeration, selection, execution ------------------- *)

let graph_positional ~nodes ~dim =
  let g = graph ~seed:51 ~nodes ~out_degree:6 in
  let h = embedding ~seed:52 ~nodes ~dim in
  [
    Script.Matrix (Executor.Sparse g);
    Script.Matrix (Executor.Dense h);
  ]

let test_plan_enumerates_fused_graph () =
  let program = Sysml.Dml.parse Sysml.Dml.graph_listing in
  let positional = graph_positional ~nodes:120 ~dim:8 in
  let t = Compiler.compile device ~inputs:[] ~positional program in
  let descs = List.map PF.key (Compiler.chosen_descriptors t) in
  Alcotest.(check bool) "fused sddmm+spmm chosen" true
    (List.mem "fusedmm/sddmm_spmm:sigmoid" descs);
  Alcotest.(check bool) "aggregation floor chosen for R" true
    (List.mem "fusedmm/spmm:plain" descs);
  (* the fused chain beat the enumerated unfused floor on cost *)
  let fused_group =
    List.find
      (fun gr ->
        gr.Kf_plan.Fuse.g_chosen.Kf_plan.Fuse.c_desc.PF.inst
        = "sddmm_spmm:sigmoid")
      (Compiler.groups t)
  in
  (match fused_group.Kf_plan.Fuse.g_rejected with
  | [ floor ] ->
      Alcotest.(check bool) "fused est < unfused est" true
        (fused_group.Kf_plan.Fuse.g_chosen.Kf_plan.Fuse.c_total_ms
        < floor.Kf_plan.Fuse.c_total_ms)
  | l -> Alcotest.failf "expected one rejected floor, got %d" (List.length l));
  (* eq1-only accessor skips graph groups *)
  Alcotest.(check int) "no eq1 instantiations" 0
    (List.length (Compiler.chosen_instantiations t));
  (* explain names the family instantiations *)
  let report = Compiler.explain t in
  Alcotest.(check bool) "explain mentions the chain" true
    (Astring.String.is_infix ~affix:"sddmm+spmm[sigmoid]" report)

let test_plan_matches_eval () =
  let program = Sysml.Dml.parse Sysml.Dml.graph_listing in
  let positional = graph_positional ~nodes:90 ~dim:6 in
  List.iter
    (fun (engine, pool) ->
      let t = Compiler.compile ~engine ?pool device ~inputs:[] ~positional program in
      let rp = Compiler.execute t in
      let ri = Script.eval ~engine ?pool device ~inputs:[] ~positional program in
      Alcotest.(check int)
        (case_name engine pool ^ ": fused launches agree")
        ri.Script.fused_launches rp.Script.fused_launches;
      List.iter
        (fun name ->
          let find (r : Script.run) =
            match List.assoc_opt name r.Script.outputs with
            | Some (Script.Matrix (Executor.Dense d)) -> d
            | _ -> Alcotest.failf "output %s missing or not dense" name
          in
          check_close
            ~msg:(case_name engine pool ^ ": output " ^ name)
            ~tol:1e-9 (find ri) (find rp))
        [ "Z"; "R" ])
    (engine_cases ())

let test_plan_rejects_unknown_semiring () =
  let program = Sysml.Dml.parse "Z = spmm($1, $2, \"fourier\"); write(Z, \"Z\");" in
  let positional = graph_positional ~nodes:20 ~dim:4 in
  Alcotest.check_raises "unknown semiring"
    (Kf_plan.Ir.Type_error
       "unknown semiring \"fourier\" (available: plain, sigmoid, maxpool)")
    (fun () -> ignore (Compiler.compile device ~inputs:[] ~positional program))

let suite =
  [
    Alcotest.test_case "fused chain is bit-identical to unfused" `Quick
      test_fused_bit_identical;
    Alcotest.test_case "all engines agree with the oracle" `Quick
      test_engines_agree;
    Alcotest.test_case "sddmm agrees across engines" `Quick
      test_sddmm_engines_agree;
    Alcotest.test_case "host kernel across chunk boundaries" `Quick
      test_host_chunk_boundaries;
    Alcotest.test_case "graphemb weights are pinned" `Quick
      test_graphemb_pinned;
    Alcotest.test_case "graph ops guard and recover" `Quick
      test_graph_guard_and_recovery;
    Alcotest.test_case "host graph kernels guard their rows" `Quick
      test_graph_kernel_guard;
    Alcotest.test_case "graph ops honour out" `Quick test_graph_out_contract;
    Alcotest.test_case "graphemb iteration allocates no z" `Quick
      test_graphemb_steady_state;
    Alcotest.test_case "dist fallback warns once per op" `Quick
      test_dist_fallback_warns_once;
    Alcotest.test_case "warp max tree reduction" `Quick test_tree_reduce_max;
    Alcotest.test_case "family registry round-trips" `Quick
      test_registry_round_trip;
    Alcotest.test_case "fusedmm descriptors round-trip" `Quick
      test_fusedmm_descriptor_round_trip;
    Alcotest.test_case "engine names parse and print" `Quick test_engine_names;
    Alcotest.test_case "KF_ENGINE-style env parsing" `Quick test_env_engine;
    Alcotest.test_case "classify_shape names every shape" `Quick
      test_classify_shape;
    Alcotest.test_case "session traces and checkpoints family counts" `Quick
      test_session_trace_and_checkpoint;
    Alcotest.test_case "plan enumerates and selects the fused chain" `Quick
      test_plan_enumerates_fused_graph;
    Alcotest.test_case "planned graph execution matches eval" `Quick
      test_plan_matches_eval;
    Alcotest.test_case "plan rejects unknown semirings" `Quick
      test_plan_rejects_unknown_semiring;
    QCheck_alcotest.to_alcotest prop_op_assoc_comm;
    QCheck_alcotest.to_alcotest prop_op_identity;
    QCheck_alcotest.to_alcotest prop_edge_pure;
    QCheck_alcotest.to_alcotest prop_sigmoid_stable;
    QCheck_alcotest.to_alcotest prop_differential_random_graphs;
  ]

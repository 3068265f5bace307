open Gpu_sim
open Matrix
module Log = Backend.Log
module Fault = Kf_resil.Fault
module Guard = Kf_resil.Guard
module Counter = Kf_obs.Counter
module Stats = Kf_obs.Host_stats

type engine = Backend.engine = Fused | Library | Host | Dist
type input = Backend.input = Sparse of Csr.t | Dense of Dense.t

(* documented in the interface *)
type profile = {
  op : string; decision : string; p_rows : int; p_cols : int; p_nnz : int;
  wall_ns : int; host : Stats.t option;
}

type result = {
  w : Vec.t; reports : Sim.report list; time_ms : float;
  instantiation : Pattern.instantiation option; engine_used : string;
  profile : profile; checked : bool;
}

type mat_result = {
  m_value : input; m_reports : Sim.report list; m_time_ms : float;
  m_desc : Pattern_family.descriptor option; m_engine_used : string;
  m_profile : profile; m_checked : bool;
}

let rows = function Sparse x -> x.Csr.rows | Dense x -> x.Dense.rows
let cols = function Sparse x -> x.Csr.cols | Dense x -> x.Dense.cols
let bytes = function Sparse x -> Csr.bytes x | Dense x -> Dense.bytes x
let nnz = function Sparse x -> Csr.nnz x | Dense x -> x.rows * x.Dense.cols

(* The one spelling of engine names: CLI flags, KF_ENGINE, benches. *)
let engines = [ Fused; Library; Host; Dist ]

let engine_to_string e =
  let module B = (val Backend.of_engine e) in B.name

let engine_of_string s =
  let s = String.lowercase_ascii (String.trim s) in
  List.find_opt (fun e -> engine_to_string e = s) engines

let simulated e =
  let module B = (val Backend.of_engine e) in B.simulated

let ops_counter = Counter.make "executor.ops"
let retries_counter = Counter.make "resil.retries"
let fallbacks_counter = Counter.make "resil.fallbacks"
let reference_counter = Counter.make "resil.reference_runs"

(* "executor.host_ops", "executor.dist_ops" *)
let wall_ops =
  let counter e = Counter.make ("executor." ^ engine_to_string e ^ "_ops") in
  List.filter_map (fun e -> if simulated e then None else Some (e, counter e))
    engines

(* [wall_ns] runs from the op's first line: simulation time on the
   simulated engines, the real wall-clock [time_ms] on the others. *)
let finish ~op ~input ~t0 ~into ~host ~simulated (run : _ Backend.run) =
  let wall_ns = Kf_obs.Clock.now_ns () - t0 and decision = run.used in
  let p_rows = rows input and p_cols = cols input and p_nnz = nnz input in
  Counter.incr ops_counter;
  Kf_obs.Trace.complete ~name:("executor." ^ op) ~ts_ns:t0 ~dur_ns:wall_ns
    ~args:[ ("decision", decision); ("rows", string_of_int p_rows);
            ("cols", string_of_int p_cols); ("nnz", string_of_int p_nnz) ]
    ();
  Option.iter Stats.emit_trace_counters host;
  let time_ms =
    if simulated then Sim.total_ms run.reports
    else Kf_obs.Clock.ns_to_ms wall_ns
  in
  Log.debug (fun m -> m "%s: %.3f ms" decision time_ms);
  ( { run with value = into run.value },
    time_ms,
    { op; decision; p_rows; p_cols; p_nnz; wall_ns; host } )

(* A wall-clock backend runs under a fresh [Host_stats] sink, returned
   on [profile.host] and folded into any enclosing one it shadowed. *)
let exec ~finish ctx f e =
  let (module B : Backend.S) = Backend.of_engine e in
  let run () = f (module B : Backend.S) ctx in
  if B.simulated then finish ~host:None ~simulated:true (run ())
  else
    let domains =
      match ctx.Backend.pool with
      | Some p -> Par.Pool.size p
      | None -> Par.Pool.default_size ()
    in
    let stats = Stats.create ~domains in
    let r = Stats.with_sink stats run in
    Option.iter (fun into -> Stats.accumulate ~into stats) (Stats.current ());
    Counter.incr (List.assq B.engine wall_ops);
    finish ~host:(Some stats) ~simulated:false r

(* The engine asked for, then its fallbacks: Dist -> Host -> Library. *)
let rec chain e =
  let module B = (val Backend.of_engine e) in
  e :: Option.fold ~none:[] ~some:chain B.fallback

let describe_failure = function
  | Fault.Injected { kind; point } ->
      Printf.sprintf "injected %s fault at %s" (Fault.kind_name kind) point
  | Guard.Unhealthy { index; value; point } ->
      Printf.sprintf "non-finite output (w.(%d) = %h) at %s" index value point
  | e -> Printexc.to_string e

(* The wrapper every op runs through: one direct call with faults and
   guards off.  Otherwise it arms the fault points below it, checks the
   output and walks the recovery chain: the same engine again, its
   fallbacks, then the sequential [reference], which nothing can inject
   into.  A kernel gets the guard point (and its checked result skips
   the scan) only under no fault rule: poisoning writes after dispatch.
   [vec_of] gives the floats to poison and scan. *)
let run ~op ~engine ~device ~pool ~cluster ~input ~vec_of ~into ~reference f =
  let t0 = Kf_obs.Clock.now_ns () and point = "executor." ^ op in
  let faults = Fault.active () and guards = Guard.enabled () in
  let guard = if guards && not faults then Some point else None in
  let finish = finish ~op ~input ~t0 ~into in
  let exec = exec ~finish { device; pool; cluster; guard } f in
  if not (faults || guards) then exec engine
  else
    let attempt e =
      Fault.with_arm @@ fun () ->
      Fault.check Fault.Launch ~point;
      let ((r : _ Backend.run), _, _) as fin = exec e in
      if faults then Fault.poison ~point (vec_of r.value);
      if faults || not r.checked then Guard.check_vec ~point (vec_of r.value);
      fin
    in
    let rec go = function
      | [] ->
          Counter.incr reference_counter;
          let used, v = reference () in
          let ((r : _ Backend.run), _, _) as fin =
            finish ~host:None ~simulated:false (Backend.ran used v)
          in
          (* if even the reference output is unhealthy the data itself is
             bad: surface it rather than return garbage *)
          Guard.check_vec ~point:(point ^ ".reference") (vec_of r.value);
          fin
      | e :: rest -> (
          try attempt e
          with (Fault.Injected _ | Guard.Unhealthy _) as exn ->
            let retry = match rest with e' :: _ -> e' = e | [] -> false in
            let verb = if retry then "retry" else "fallback" in
            Counter.incr (if retry then retries_counter else fallbacks_counter);
            let cause = describe_failure exn and name = engine_to_string e in
            Kf_obs.Trace.instant ("resil." ^ verb)
              ~args:[ ("op", op); ("engine", name); ("cause", cause) ];
            Log.warn (fun m -> m "%s after %s on %s %s" verb cause name op);
            go rest)
    in
    go (engine :: chain engine)

(* A result not written into the caller's [out] is copied over it. *)
let copy_into data out v =
  match out with
  | Some o when v != o ->
      Array.blit (data v) 0 (data o) 0 (Array.length (data o));
      o
  | _ -> v

let vec ~op ?(out = None) instantiation ~engine ~device ~pool ~cluster input
    reference f =
  let (run : _ Backend.run), time_ms, profile =
    run ~op ~engine ~device ~pool ~cluster ~input ~vec_of:Fun.id
      ~into:(copy_into Fun.id out)
      ~reference:(fun () -> ("reference sequential blas", reference ()))
      f
  in
  { w = run.value; reports = run.reports; time_ms; instantiation;
    engine_used = run.used; profile; checked = run.checked }

let shape first_multiply weighted additive_tail =
  Some (Pattern.classify_shape { first_multiply; weighted; additive_tail })

let xt_y ?(engine = Fused) ?pool ?cluster device input y ~alpha =
  vec ~op:"xt_y" (shape false false false) ~engine ~device ~pool ~cluster input
    (fun () ->
      Blas.finish_pattern ~alpha ~beta:None ~z:None
        (Backend.layout input ~sparse:Blas.csrmv_t ~dense:Blas.gemv_t y))
    (fun (module B : Backend.S) c -> B.xt_y c input y ~alpha)

let pattern ?(engine = Fused) ?pool ?cluster ?out device input ~y ?v ?beta_z
    ~alpha () =
  let beta = Option.map fst beta_z and z = Option.map snd beta_z in
  Option.iter
    (Host_fused.check_out ~name:"Executor.pattern" ~cols:(cols input) ~y ~v ~z)
    out;
  vec ~op:"pattern" ~out (shape true (v <> None) (beta_z <> None)) ~engine
    ~device ~pool ~cluster input
    (fun () ->
      Backend.layout input
        ~sparse:(fun x -> Blas.pattern_sparse ~alpha x ?v y ?beta ?z ())
        ~dense:(fun x -> Blas.pattern_dense ~alpha x ?v y ?beta ?z ()))
    (fun (module B : Backend.S) c ->
      B.pattern c ?out input ~y ?v ?beta_z ~alpha ())

let x_y ?(engine = Fused) ?pool ?cluster device input y =
  vec ~op:"x_y" None ~engine ~device ~pool ~cluster input
    (fun () -> Backend.layout input ~sparse:Blas.csrmv ~dense:Blas.gemv y)
    (fun (module B : Backend.S) c -> B.x_y c input y)

(* Graph ops: [wrap] lifts the value into [m_value]; [desc] is what a
   [Pattern.Trace] records ([None] for standalone SDDMM, not a family
   instantiation). *)
let mat ~op ~wrap ~vec_of ?(into = Fun.id) desc ~engine ~device ~pool g
    reference f =
  let (run : _ Backend.run), time_ms, profile =
    run ~op ~engine ~device ~pool ~cluster:None ~input:(Sparse g) ~vec_of ~into
      ~reference:(fun () -> ("reference sequential fusedmm", reference ()))
      f
  in
  { m_value = wrap run.value; m_reports = run.reports; m_time_ms = time_ms;
    m_desc = desc; m_engine_used = run.used; m_profile = profile;
    m_checked = run.checked }

(* fusedmm and spmm: a dense result the host kernel can write into [out] *)
let dense_mat ~op inst ~semiring ~out ~engine ~device ~pool (g : Csr.t)
    (h : Dense.t) =
  let name = "Executor." ^ op and data (z : Dense.t) = z.data in
  Fusedmm.check ~name inst g h;
  Option.iter (Host_fused.check_graph_out ~name ~rows:g.rows h) out;
  mat ~op ~wrap:(fun z -> Dense z) ~vec_of:data ~into:(copy_into data out)
    (Some (Fusedmm.descriptor ~semiring:semiring.Semiring.name inst))
    ~engine ~device ~pool g

let fusedmm ?(engine = Fused) ?pool ?(semiring = Semiring.plain) ?out device
    inst g h =
  dense_mat ~op:"fusedmm" inst ~semiring ~out ~engine ~device ~pool g h
    (fun () -> Fusedmm.fused ~semiring inst g h)
    (fun (module B : Backend.S) c -> B.fusedmm c ?out semiring inst g h)

let sddmm ?(engine = Fused) ?pool ?(semiring = Semiring.plain) device g h =
  mat ~op:"sddmm" None ~wrap:(fun s -> Sparse s) ~engine ~device ~pool g
    ~vec_of:(fun (s : Csr.t) -> s.values)
    (fun () -> Fusedmm.sddmm ~semiring g h)
    (fun (module B : Backend.S) c -> B.sddmm c semiring g h)

let spmm ?(engine = Fused) ?pool ?(semiring = Semiring.plain) ?out device s h =
  dense_mat ~op:"spmm" Fusedmm.Spmm ~semiring ~out ~engine ~device ~pool s h
    (fun () -> Fusedmm.spmm ~semiring s h)
    (fun (module B : Backend.S) c -> B.spmm c ?out semiring s h)

type variant = Dense_acc | Blocked

let variant_name = function
  | Dense_acc -> "dense-acc"
  | Blocked -> "blocked"

let variant_of_name = function
  | "dense-acc" -> Some Dense_acc
  | "blocked" -> Some Blocked
  | _ -> None

let default_accumulator_budget_bytes = Par.Tune.accumulator_budget_bytes

(* KF_HOST_VARIANT forces a variant for experiments; otherwise the
   shape decides: per-domain dense accumulators (one matrix walk, tree
   merge) while they are cache-cheap, the owner-computes blocked kernel
   once [8 * cols * domains] outgrows the budget/L2 cap. *)
let choose_variant ?budget_bytes ~domains ~cols () =
  match Option.bind (Sys.getenv_opt "KF_HOST_VARIANT") variant_of_name with
  | Some v -> v
  | None ->
      if Par.Tune.prefer_owner_computes ?budget_bytes ~domains ~cols () then
        Blocked
      else Dense_acc

let get_pool = function Some p -> p | None -> Par.Pool.default ()

let resolve_variant pool variant ~cols =
  let v =
    match variant with
    | Some v -> v
    | None -> choose_variant ~domains:(Par.Pool.size pool) ~cols ()
  in
  Kf_obs.Host_stats.set_variant (variant_name v);
  v

(* One tree-merge step, [dst += src] over the columns [lo, hi) of two
   scratch accumulators, 4-way unrolled.  The buffers may be longer
   than the output (pool scratch is grow-only), so the range is passed,
   never read off them. *)
let merge_add ~lo ~hi ~(dst : float array) ~(src : float array) =
  let i = ref lo in
  while !i + 4 <= hi do
    let i0 = !i in
    Array.unsafe_set dst i0
      (Array.unsafe_get dst i0 +. Array.unsafe_get src i0);
    Array.unsafe_set dst (i0 + 1)
      (Array.unsafe_get dst (i0 + 1) +. Array.unsafe_get src (i0 + 1));
    Array.unsafe_set dst (i0 + 2)
      (Array.unsafe_get dst (i0 + 2) +. Array.unsafe_get src (i0 + 2));
    Array.unsafe_set dst (i0 + 3)
      (Array.unsafe_get dst (i0 + 3) +. Array.unsafe_get src (i0 + 3));
    i := i0 + 4
  done;
  while !i < hi do
    Array.unsafe_set dst !i
      (Array.unsafe_get dst !i +. Array.unsafe_get src !i);
    incr i
  done

(* Epilogue pairing with [Blas.finish_pattern]'s validation, so the
   fused final-write paths reject the same argument mistakes. *)
let epilogue_of ~beta ~z =
  match (beta, z) with
  | Some b, Some z -> Some (b, z)
  | None, None -> None
  | Some b, None ->
      if b <> 0.0 then invalid_arg "Blas.pattern: beta given without z"
      else None
  | None, Some _ -> invalid_arg "Blas.pattern: z given without beta"

(* Write [alpha * m + beta * z] over the columns [lo, hi) of [out]. *)
let epilogue_range ~alpha ~beta_z (m : float array) ~(out : float array) ~lo
    ~hi =
  match beta_z with
  | None ->
      for c = lo to hi - 1 do
        Array.unsafe_set out c (alpha *. Array.unsafe_get m c)
      done
  | Some (beta, (z : float array)) ->
      for c = lo to hi - 1 do
        Array.unsafe_set out c
          ((alpha *. Array.unsafe_get m c) +. (beta *. Array.unsafe_get z c))
      done

let rec atomic_min (a : int Atomic.t) v =
  let cur = Atomic.get a in
  if v < cur && not (Atomic.compare_and_set a cur v) then atomic_min a v

(* The guard's verdict on [out] from the least bad index the workers
   found ([max_int] when none did). *)
let report_bad guard out bad =
  Option.iter
    (fun point ->
      let b = Atomic.get bad in
      Kf_resil.Guard.report ~point out (if b = max_int then -1 else b))
    guard

(* One scan at the end, for the exits that do not check as they
   write. *)
let check_after guard out =
  Option.iter (fun point -> Kf_resil.Guard.check_vec ~point out) guard

(* [out] is written while the kernels still read y, v and z, and a
   retry rereads them after a failed attempt wrote [out]: it must be
   none of them. *)
let check_out ~name ~cols ~y ~v ~z o =
  if Array.length o <> cols then
    invalid_arg (name ^ ": out must have one element per column");
  let aliases = function Some a -> a == o | None -> false in
  if o == y || aliases v || aliases z then
    invalid_arg (name ^ ": out must not alias y, v or z")

(* The result vector: the caller's [out] when given, else a fresh one —
   every path below overwrites all of it. *)
let output ~name ?out ~cols ~y ~v ~z () =
  match out with
  | None -> Array.create_float cols
  | Some o ->
      check_out ~name ~cols ~y ~v ~z o;
      o

let check_sparse_args (x : Matrix.Csr.t) ~v ~y ~z ~name =
  if Array.length y <> x.cols then
    invalid_arg (name ^ ": y must have one element per column");
  (match v with
  | Some v when Array.length v <> x.rows ->
      invalid_arg (name ^ ": v must have one element per row")
  | _ -> ());
  match z with
  | Some z when Array.length z <> x.cols ->
      invalid_arg (name ^ ": z must have one element per column")
  | _ -> ()

(* Degenerate shapes never reach the pool: the alpha term is a sum over
   zero rows (or zero columns), so the result is just the epilogue. *)
let degenerate ?guard ~alpha ~beta ~z ~out () =
  Array.fill out 0 (Array.length out) 0.0;
  ignore (Matrix.Blas.finish_pattern ~alpha ~beta ~z out);
  check_after guard out;
  out

(* One fused pass over the rows [rlo, rhi) of [x], scattering each row's
   scalar contribution into the accumulator [w].  [p_of]
   yields the per-row scalar: either a fresh dot product against y
   (Algorithm 2's first walk, locals standing in for registers) or a
   precomputed value (Algorithm 1).  The scatter is 4-way unrolled over
   unsafe accesses — the host's register-unrolling (TL) analogue. *)
let sparse_scatter_rows_acc (x : Matrix.Csr.t) ~p_of ~(w : float array) ~rlo
    ~rhi =
  let values = x.values and col_idx = x.col_idx and row_off = x.row_off in
  for r = rlo to rhi - 1 do
    let s = Array.unsafe_get row_off r
    and e = Array.unsafe_get row_off (r + 1) in
    if e > s then begin
      let pr = p_of r s e in
      if pr <> 0.0 then begin
        let i = ref s in
        while !i + 4 <= e do
          let i0 = !i in
          let c0 = Array.unsafe_get col_idx i0
          and v0 = Array.unsafe_get values i0 in
          let c1 = Array.unsafe_get col_idx (i0 + 1)
          and v1 = Array.unsafe_get values (i0 + 1) in
          let c2 = Array.unsafe_get col_idx (i0 + 2)
          and v2 = Array.unsafe_get values (i0 + 2) in
          let c3 = Array.unsafe_get col_idx (i0 + 3)
          and v3 = Array.unsafe_get values (i0 + 3) in
          Array.unsafe_set w c0 (Array.unsafe_get w c0 +. (v0 *. pr));
          Array.unsafe_set w c1 (Array.unsafe_get w c1 +. (v1 *. pr));
          Array.unsafe_set w c2 (Array.unsafe_get w c2 +. (v2 *. pr));
          Array.unsafe_set w c3 (Array.unsafe_get w c3 +. (v3 *. pr));
          i := i0 + 4
        done;
        while !i < e do
          let c = Array.unsafe_get col_idx !i in
          Array.unsafe_set w c
            (Array.unsafe_get w c
            +. (Array.unsafe_get values !i *. pr));
          incr i
        done
      end
    end
  done

(* Row dot product with four independent accumulators (differs from the
   sequential reference by reassociation only). *)
let sparse_row_dot (x : Matrix.Csr.t) y ~v r s e =
  let values = x.values and col_idx = x.col_idx in
  let acc0 = ref 0.0 and acc1 = ref 0.0 in
  let acc2 = ref 0.0 and acc3 = ref 0.0 in
  let i = ref s in
  while !i + 4 <= e do
    let i0 = !i in
    acc0 :=
      !acc0
      +. Array.unsafe_get values i0
         *. Array.unsafe_get y (Array.unsafe_get col_idx i0);
    acc1 :=
      !acc1
      +. Array.unsafe_get values (i0 + 1)
         *. Array.unsafe_get y (Array.unsafe_get col_idx (i0 + 1));
    acc2 :=
      !acc2
      +. Array.unsafe_get values (i0 + 2)
         *. Array.unsafe_get y (Array.unsafe_get col_idx (i0 + 2));
    acc3 :=
      !acc3
      +. Array.unsafe_get values (i0 + 3)
         *. Array.unsafe_get y (Array.unsafe_get col_idx (i0 + 3));
    i := i0 + 4
  done;
  let acc = ref (!acc0 +. !acc1 +. (!acc2 +. !acc3)) in
  while !i < e do
    acc :=
      !acc
      +. Array.unsafe_get values !i
         *. Array.unsafe_get y (Array.unsafe_get col_idx !i);
    incr i
  done;
  match v with None -> !acc | Some v -> !acc *. v.(r)

(* Observability: per-worker rows/nnz are credited inside the worker
   closures, each writing only its own slot, and accumulator
   allocations by [Par.Pool.scratch] when a workspace buffer grows.
   Every recording entry point is a no-op one-flag check unless the
   executor installed a Host_stats sink. *)

(* The per-domain accumulators of [Dense_acc]: each worker's [Acc]
   scratch buffer, zero-filled by its owner inside the job. *)
let dense_acc_buffers pool ~cols =
  Array.init (Par.Pool.size pool) (fun wid ->
      Par.Pool.scratch pool Par.Pool.Acc ~wid cols)

(* The tree merge's rounds: stride 1 merges (0,1), (2,3), ...; stride 2
   merges (0,2), (4,6), ...; and so on, [dst += src] for each pair — the
   log-depth order of the paper's inter-block sweep, so the merged sum
   is [(a0 + a1) + (a2 + a3)] for four domains and [(a0 + a1) + a2] for
   three.  The pairs of one round are disjoint. *)
let iter_merge_rounds ~workers ~round ~pair =
  let s = ref 1 in
  while !s < workers do
    round ();
    let i = ref 0 in
    while !i + !s < workers do
      pair ~dst:!i ~src:(!i + !s);
      i := !i + (2 * !s)
    done;
    s := 2 * !s
  done

(* Recorded on the coordinator (the tallies are single-writer): one
   pass per round, one op per pair, and 24 bytes per column per pair
   (each merge reads dst and src and writes dst). *)
let record_merge ~workers ~cols =
  if Kf_obs.Host_stats.profiling () then begin
    iter_merge_rounds ~workers ~round:Kf_obs.Host_stats.record_merge_pass
      ~pair:(fun ~dst:_ ~src:_ -> Kf_obs.Host_stats.record_merge_op ());
    Kf_obs.Host_stats.record_merge_bytes ~bytes:((workers - 1) * cols * 8 * 3)
  end

(* Columns per step of the finish pass: the accumulators', [z]'s and
   [out]'s slices of one step stay in L1 from the merge through the
   guard's check. *)
let finish_block = 512

(* [Dense_acc]'s finish: one pass over column ranges on the pool, each
   range merging the per-domain accumulators in the tree's pair order
   ([iter_merge_rounds]), writing [alpha * m + beta * z] into [out],
   and — with [guard] — checking the slice it just wrote.  The merge,
   the epilogue and the guard's scan were three passes on the
   coordinator; the bits are the same, since every column sees the
   same additions in the same order.  A range keeps its first bad
   index, and the least over all ranges is the one a scan of [out]
   finds first: [report_bad] raises what [Guard.check_vec] would.
   [Par.Pool.parallel_for]'s cutoff keeps narrow outputs on the
   coordinator. *)
let finish_dense_acc ?guard pool parts ~alpha ~beta_z ~out =
  let workers = Array.length parts and cols = Array.length out in
  record_merge ~workers ~cols;
  let bad = Atomic.make max_int in
  Par.Pool.parallel_for pool ~lo:0 ~hi:cols (fun lo hi ->
      let first = ref (-1) and b = ref lo in
      while !b < hi do
        let lo = !b in
        let hi = min hi (lo + finish_block) in
        iter_merge_rounds ~workers ~round:ignore ~pair:(fun ~dst ~src ->
            merge_add ~lo ~hi ~dst:parts.(dst) ~src:parts.(src));
        epilogue_range ~alpha ~beta_z parts.(0) ~out ~lo ~hi;
        if guard <> None && !first < 0 then
          first := Kf_resil.Guard.first_non_finite out ~lo ~hi;
        b := hi
      done;
      if !first >= 0 then atomic_min bad !first);
  report_bad guard out bad

(* Dense_acc: nnz-balanced row ranges, each scattered into its
   domain's accumulator in one matrix walk; [finish_dense_acc] merges
   them. *)
let sparse_dense_acc pool (x : Matrix.Csr.t) ~p_of =
  let workers = Par.Pool.size pool in
  let bounds = Par.Partition.by_prefix ~prefix:x.row_off ~parts:workers () in
  let parts = dense_acc_buffers pool ~cols:x.cols in
  Par.Pool.run_workers pool (fun wid ->
      let w = parts.(wid) in
      Array.fill w 0 x.cols 0.0;
      if Kf_obs.Host_stats.profiling () then
        Kf_obs.Host_stats.add_work
          ~rows:(bounds.(wid + 1) - bounds.(wid))
          ~nnz:(x.row_off.(bounds.(wid + 1)) - x.row_off.(bounds.(wid)));
      sparse_scatter_rows_acc x ~p_of ~w ~rlo:bounds.(wid)
        ~rhi:bounds.(wid + 1));
  parts

(* Blocked: the owner-computes two-pass kernel.  Pass 1 materialises
   the per-row scalars in parallel over row blocks; pass 2 scatters
   through the cached column-tile segment layout, each domain writing
   only the output slice it owns — no per-domain full-width
   accumulators, no merge, and exactly one streaming of the matrix per
   pass.  The epilogue is folded into the owners' final writes. *)
let sparse_blocked pool ?tile_rows ?tile_cols (x : Matrix.Csr.t) ~p_of ~alpha
    ~beta_z ~out =
  let workers = Par.Pool.size pool in
  let p = Par.Pool.scratch pool Par.Pool.Rows ~wid:0 x.rows in
  let chunk =
    match tile_rows with
    | Some n when n >= 1 -> n
    | _ -> Par.Tune.tile_rows ()
  in
  Par.Pool.parallel_for pool ~chunk ~lo:0 ~hi:x.rows (fun a b ->
      if Kf_obs.Host_stats.profiling () then
        Kf_obs.Host_stats.add_work ~rows:(b - a)
          ~nnz:(x.row_off.(b) - x.row_off.(a));
      for r = a to b - 1 do
        let s = x.row_off.(r) and e = x.row_off.(r + 1) in
        p.(r) <- (if e > s then p_of r s e else 0.0)
      done);
  let t = Matrix.Tiles.layout ?tile_cols ~parts:workers x in
  Matrix.Tiles.scatter ~pool ~credit:false t x ~p ~alpha ?beta_z ~out ()

let run_sparse ?pool ?variant ?tile_rows ?tile_cols ?guard (x : Matrix.Csr.t)
    ~p_of ~alpha ~beta ~z ~out =
  (* armed fault point: only fires under the executor's recovery scope *)
  Kf_resil.Fault.check Kf_resil.Fault.Launch ~point:"host_fused.sparse";
  let pool = get_pool pool in
  let beta_z = epilogue_of ~beta ~z in
  (match resolve_variant pool variant ~cols:x.cols with
  | Dense_acc ->
      let parts = sparse_dense_acc pool x ~p_of in
      finish_dense_acc ?guard pool parts ~alpha ~beta_z ~out
  | Blocked ->
      sparse_blocked pool ?tile_rows ?tile_cols x ~p_of ~alpha ~beta_z ~out;
      check_after guard out);
  out

let pattern_sparse ?pool ?variant ?tile_rows ?tile_cols ?out ?guard ~alpha
    (x : Matrix.Csr.t) ?v y ?beta ?z () =
  let name = "Host_fused.pattern_sparse" in
  check_sparse_args x ~v ~y ~z ~name;
  let out = output ~name ?out ~cols:x.cols ~y ~v ~z () in
  if x.rows = 0 || x.cols = 0 || Matrix.Csr.nnz x = 0 then
    degenerate ?guard ~alpha ~beta ~z ~out ()
  else
    run_sparse ?pool ?variant ?tile_rows ?tile_cols ?guard x
      ~p_of:(sparse_row_dot x y ~v) ~alpha ~beta ~z ~out

let xt_p ?pool ?variant ?tile_rows ?tile_cols ?guard ~alpha (x : Matrix.Csr.t)
    p =
  if Array.length p <> x.rows then
    invalid_arg "Host_fused.xt_p: p must have one element per row";
  let out = Array.create_float x.cols in
  if x.rows = 0 || x.cols = 0 || Matrix.Csr.nnz x = 0 then
    degenerate ?guard ~alpha ~beta:None ~z:None ~out ()
  else
    run_sparse ?pool ?variant ?tile_rows ?tile_cols ?guard x
      ~p_of:(fun r _s _e -> p.(r))
      ~alpha ~beta:None ~z:None ~out

(* ---- dense ---- *)

let check_dense_args (x : Matrix.Dense.t) ~v ~y ~z ~name =
  if Array.length y <> x.cols then
    invalid_arg (name ^ ": y must have one element per column");
  (match v with
  | Some v when Array.length v <> x.rows ->
      invalid_arg (name ^ ": v must have one element per row")
  | _ -> ());
  match z with
  | Some z when Array.length z <> x.cols ->
      invalid_arg (name ^ ": z must have one element per column")
  | _ -> ()

let dense_row_scalar (x : Matrix.Dense.t) y ~v r =
  let data = x.data and cols = x.cols in
  let base = r * cols in
  let acc0 = ref 0.0 and acc1 = ref 0.0 in
  let acc2 = ref 0.0 and acc3 = ref 0.0 in
  let c = ref 0 in
  while !c + 4 <= cols do
    let c0 = !c in
    acc0 :=
      !acc0 +. (Array.unsafe_get data (base + c0) *. Array.unsafe_get y c0);
    acc1 :=
      !acc1
      +. (Array.unsafe_get data (base + c0 + 1) *. Array.unsafe_get y (c0 + 1));
    acc2 :=
      !acc2
      +. (Array.unsafe_get data (base + c0 + 2) *. Array.unsafe_get y (c0 + 2));
    acc3 :=
      !acc3
      +. (Array.unsafe_get data (base + c0 + 3) *. Array.unsafe_get y (c0 + 3));
    c := c0 + 4
  done;
  let acc = ref (!acc0 +. !acc1 +. (!acc2 +. !acc3)) in
  while !c < cols do
    acc := !acc +. (Array.unsafe_get data (base + !c) *. Array.unsafe_get y !c);
    incr c
  done;
  match v with None -> !acc | Some v -> !acc *. v.(r)

(* Axpy of one dense row into the accumulator, 4-way unrolled. *)
let dense_axpy_row data ~base ~pr ~(w : float array) ~clo ~chi =
  let c = ref clo in
  while !c + 4 <= chi do
    let c0 = !c in
    Array.unsafe_set w c0
      (Array.unsafe_get w c0
      +. (Array.unsafe_get data (base + c0) *. pr));
    Array.unsafe_set w (c0 + 1)
      (Array.unsafe_get w (c0 + 1)
      +. (Array.unsafe_get data (base + c0 + 1) *. pr));
    Array.unsafe_set w (c0 + 2)
      (Array.unsafe_get w (c0 + 2)
      +. (Array.unsafe_get data (base + c0 + 2) *. pr));
    Array.unsafe_set w (c0 + 3)
      (Array.unsafe_get w (c0 + 3)
      +. (Array.unsafe_get data (base + c0 + 3) *. pr));
    c := c0 + 4
  done;
  while !c < chi do
    Array.unsafe_set w !c
      (Array.unsafe_get w !c
      +. (Array.unsafe_get data (base + !c) *. pr));
    incr c
  done

let dense_dense_acc pool (x : Matrix.Dense.t) ~p_of =
  let workers = Par.Pool.size pool in
  let bounds = Par.Partition.uniform ~n:x.rows ~parts:workers in
  let parts = dense_acc_buffers pool ~cols:x.cols in
  Par.Pool.run_workers pool (fun wid ->
      let w = parts.(wid) in
      Array.fill w 0 x.cols 0.0;
      if Kf_obs.Host_stats.profiling () then
        Kf_obs.Host_stats.add_work
          ~rows:(bounds.(wid + 1) - bounds.(wid))
          ~nnz:((bounds.(wid + 1) - bounds.(wid)) * x.cols);
      for r = bounds.(wid) to bounds.(wid + 1) - 1 do
        let pr = p_of r in
        if pr <> 0.0 then
          dense_axpy_row x.data ~base:(r * x.cols) ~pr ~w ~clo:0 ~chi:x.cols
      done);
  parts

(* Dense Blocked: pass 1 materialises p over row blocks; pass 2 is the
   owner-computes column-stripe gemv_t from the parallel BLAS with the
   epilogue folded into the owners' final writes. *)
let dense_blocked pool ?tile_rows ?tile_cols (x : Matrix.Dense.t) ~p_of ~alpha
    ~beta_z ~out =
  let p = Par.Pool.scratch pool Par.Pool.Rows ~wid:0 x.rows in
  let chunk =
    match tile_rows with
    | Some n when n >= 1 -> n
    | _ -> Par.Tune.tile_rows ()
  in
  Par.Pool.parallel_for pool ~chunk ~lo:0 ~hi:x.rows (fun a b ->
      if Kf_obs.Host_stats.profiling () then
        Kf_obs.Host_stats.add_work ~rows:(b - a) ~nnz:((b - a) * x.cols);
      for r = a to b - 1 do
        p.(r) <- p_of r
      done);
  Matrix.Blas.owner_gemv_t ~pool ?tile_rows ?tile_cols ~credit:false ~alpha
    ?beta_z x p ~out

let pattern_dense ?pool ?variant ?tile_rows ?tile_cols ?out ?guard ~alpha
    (x : Matrix.Dense.t) ?v y ?beta ?z () =
  let name = "Host_fused.pattern_dense" in
  check_dense_args x ~v ~y ~z ~name;
  let out = output ~name ?out ~cols:x.cols ~y ~v ~z () in
  if x.rows = 0 || x.cols = 0 then degenerate ?guard ~alpha ~beta ~z ~out ()
  else begin
    Kf_resil.Fault.check Kf_resil.Fault.Launch ~point:"host_fused.dense";
    let pool = get_pool pool in
    let beta_z = epilogue_of ~beta ~z in
    let p_of = dense_row_scalar x y ~v in
    (match resolve_variant pool variant ~cols:x.cols with
    | Dense_acc ->
        let parts = dense_dense_acc pool x ~p_of in
        finish_dense_acc ?guard pool parts ~alpha ~beta_z ~out
    | Blocked ->
        dense_blocked pool ?tile_rows ?tile_cols x ~p_of ~alpha ~beta_z ~out;
        check_after guard out);
    out
  end

(* Dense [alpha * X^T p]: [Blas.owner_gemv_t]'s column stripes with
   [alpha] folded into the owners' final writes.  Every column sums its
   rows in order, as [Blas.gemv_t] does, so the bits are those of
   [gemv_t] followed by a scale, on any pool. *)
let xt_p_dense ?pool ?guard ~alpha (x : Matrix.Dense.t) p =
  if Array.length p <> x.rows then
    invalid_arg "Host_fused.xt_p_dense: p must have one element per row";
  let out = Array.create_float x.cols in
  if x.rows = 0 || x.cols = 0 then
    degenerate ?guard ~alpha ~beta:None ~z:None ~out ()
  else begin
    Matrix.Blas.owner_gemv_t ~pool:(get_pool pool) ~credit:true ~alpha x p
      ~out;
    check_after guard out;
    out
  end

(* ---- FusedMM graph kernels ------------------------------------------------ *)

(* A row's edges run in chunks of [edge_chunk] through three call-free
   loops, each specialised to one case: (1) the sampled dots, back-to-
   back independent gathers the core overlaps (the paper's VS x C loads
   in flight) instead of paying each one's latency behind the previous
   edge's [exp]; (2) the edge weights; (3) the aggregation of the
   now-L1-hot neighbour rows. *)
let edge_chunk = 32

(* [Semiring.logistic], repeated so it inlines: a call into another
   module of this [-opaque] library would box [x] and the result. *)
let[@inline] logistic x =
  if x >= 0.0 then 1.0 /. (1.0 +. exp (-.x))
  else
    let e = exp x in
    e /. (1.0 +. e)

(* Loops 1 and 2 over edges [lo, hi) of [row]: [w.(k - base)] becomes
   [G_k * edge <H_row, H_j>], the dot in four independent accumulators
   (it differs from [Fusedmm.dot_rows] by reassociation only). *)
let edge_weights (sr : Semiring.t) (g : Matrix.Csr.t) (h : Matrix.Dense.t)
    ~row ~lo ~hi w ~base =
  let data = h.data and d = h.cols in
  let bi = row * d in
  for k = lo to hi - 1 do
    let bj = Array.unsafe_get g.col_idx k * d in
    let acc0 = ref 0.0 and acc1 = ref 0.0 in
    let acc2 = ref 0.0 and acc3 = ref 0.0 in
    let c = ref 0 in
    while !c + 4 <= d do
      let c0 = !c in
      acc0 :=
        !acc0
        +. (Array.unsafe_get data (bi + c0) *. Array.unsafe_get data (bj + c0));
      acc1 :=
        !acc1
        +. Array.unsafe_get data (bi + c0 + 1)
           *. Array.unsafe_get data (bj + c0 + 1);
      acc2 :=
        !acc2
        +. Array.unsafe_get data (bi + c0 + 2)
           *. Array.unsafe_get data (bj + c0 + 2);
      acc3 :=
        !acc3
        +. Array.unsafe_get data (bi + c0 + 3)
           *. Array.unsafe_get data (bj + c0 + 3);
      c := c0 + 4
    done;
    let acc = ref (!acc0 +. !acc1 +. (!acc2 +. !acc3)) in
    while !c < d do
      acc :=
        !acc
        +. (Array.unsafe_get data (bi + !c) *. Array.unsafe_get data (bj + !c));
      incr c
    done;
    Array.unsafe_set w (k - base) !acc
  done;
  match sr.edge with
  | Semiring.Identity ->
      for k = lo to hi - 1 do
        Array.unsafe_set w (k - base)
          (Array.unsafe_get g.values k *. Array.unsafe_get w (k - base))
      done
  | Semiring.Logistic ->
      for k = lo to hi - 1 do
        Array.unsafe_set w (k - base)
          (Array.unsafe_get g.values k
          *. logistic (Array.unsafe_get w (k - base)))
      done

(* Loop 3: fold [w.(k - base) * H_j] for edges [lo, hi) into row [row]
   of [z], which holds the semiring identity or earlier partials.  Sum
   is a 4-way unrolled axpy; Max keeps a plain loop ([Float.max]
   matches the sequential reference exactly, NaN handling included). *)
let aggregate (op : Semiring.op) (z : Matrix.Dense.t) (g : Matrix.Csr.t)
    (h : Matrix.Dense.t) ~row ~lo ~hi w ~base =
  let data = h.data and out = z.data and d = h.cols in
  let bz = row * d in
  match op with
  | Semiring.Sum ->
      for k = lo to hi - 1 do
        let a = Array.unsafe_get w (k - base) in
        let bj = Array.unsafe_get g.col_idx k * d in
        let c = ref 0 in
        while !c + 4 <= d do
          let c0 = bz + !c and j0 = bj + !c in
          Array.unsafe_set out c0
            (Array.unsafe_get out c0 +. (a *. Array.unsafe_get data j0));
          Array.unsafe_set out (c0 + 1)
            (Array.unsafe_get out (c0 + 1)
            +. (a *. Array.unsafe_get data (j0 + 1)));
          Array.unsafe_set out (c0 + 2)
            (Array.unsafe_get out (c0 + 2)
            +. (a *. Array.unsafe_get data (j0 + 2)));
          Array.unsafe_set out (c0 + 3)
            (Array.unsafe_get out (c0 + 3)
            +. (a *. Array.unsafe_get data (j0 + 3)));
          c := !c + 4
        done;
        while !c < d do
          Array.unsafe_set out (bz + !c)
            (Array.unsafe_get out (bz + !c)
            +. (a *. Array.unsafe_get data (bj + !c)));
          incr c
        done
      done
  | Semiring.Max ->
      for k = lo to hi - 1 do
        let a = Array.unsafe_get w (k - base) in
        let bj = Array.unsafe_get g.col_idx k * d in
        for c = 0 to d - 1 do
          Array.unsafe_set out (bz + c)
            (Float.max
               (Array.unsafe_get out (bz + c))
               (a *. Array.unsafe_get data (bj + c)))
        done
      done

(* The row-parallel pass of both graph kernels: [row_fn w row s e] for
   every row, its edges [s, e) and a per-domain chunk buffer [w].
   Output rows are disjoint, so the per-domain-accumulator/merge
   machinery above has nothing to do here: each domain writes only the
   rows it owns, row [row] owning [out.(row_start row)] up to
   [out.(row_start (row + 1))].

   With [guard] (a guard point) each row's output is checked for a
   non-finite value as soon as [row_fn] has written it, while it is
   still in L1, instead of in a second sequential pass over [out].
   Rows ascend within a chunk, so a chunk stops checking at its first
   bad row, and the least index over all chunks is the element a scan
   of [out] would find first: [Guard.report] raises what
   [Guard.check_vec] would. *)
let graph_rows ?guard pool (g : Matrix.Csr.t) ~out ~row_start row_fn =
  Kf_resil.Fault.check Kf_resil.Fault.Launch ~point:"host_fused.graph";
  let pool = get_pool pool in
  Kf_obs.Host_stats.set_variant "row-disjoint";
  let scan = guard <> None and bad = Atomic.make max_int in
  Par.Pool.parallel_for pool ~lo:0 ~hi:g.rows (fun lo hi ->
      if Kf_obs.Host_stats.profiling () then
        Kf_obs.Host_stats.add_work ~rows:(hi - lo)
          ~nnz:(g.row_off.(hi) - g.row_off.(lo));
      let w = Array.make edge_chunk 0.0 in
      let first = ref (-1) in
      for row = lo to hi - 1 do
        row_fn w row g.row_off.(row) g.row_off.(row + 1);
        if scan && !first < 0 then
          first :=
            Kf_resil.Guard.first_non_finite out ~lo:(row_start row)
              ~hi:(row_start (row + 1))
      done;
      if !first >= 0 then atomic_min bad !first);
  report_bad guard out bad

(* [out] is written while [h] is still being gathered, and a retry
   rereads [h] after a failed attempt wrote [out]: it must not be [h]. *)
let check_graph_out ~name ~rows (h : Matrix.Dense.t) (o : Matrix.Dense.t) =
  if o.rows <> rows || o.cols <> h.cols then
    invalid_arg (name ^ ": out must have the result's rows and h's columns");
  if o == h then invalid_arg (name ^ ": out must not alias h")

let fusedmm ?pool ?(semiring = Semiring.plain) ?out ?guard inst
    (g : Matrix.Csr.t) (h : Matrix.Dense.t) =
  let name = "Host_fused.fusedmm" in
  Fusedmm.check ~name inst g h;
  let z =
    match out with
    | None -> Matrix.Dense.create g.rows h.cols
    | Some o ->
        check_graph_out ~name ~rows:g.rows h o;
        o
  in
  let d = h.cols and zd = z.data in
  if g.rows > 0 && d > 0 && Matrix.Csr.nnz g > 0 then
    graph_rows ?guard pool g ~out:zd
      ~row_start:(fun r -> r * d)
      (fun w row s e ->
        (* the row starts from the fold's identity; an empty row stays
           zero *)
        let init =
          if e > s && semiring.op = Semiring.Max then neg_infinity else 0.0
        in
        for c = row * d to ((row + 1) * d) - 1 do
          Array.unsafe_set zd c init
        done;
        match inst with
        | Fusedmm.Spmm ->
            aggregate semiring.op z g h ~row ~lo:s ~hi:e g.values ~base:0
        | Fusedmm.Sddmm_spmm ->
            let k = ref s in
            while !k < e do
              let k0 = !k and k1 = min e (!k + edge_chunk) in
              edge_weights semiring g h ~row ~lo:k0 ~hi:k1 w ~base:k0;
              aggregate semiring.op z g h ~row ~lo:k0 ~hi:k1 w ~base:k0;
              k := k1
            done)
  else begin
    Array.fill zd 0 (Array.length zd) 0.0;
    check_after guard zd
  end;
  z

let sddmm ?pool ?(semiring = Semiring.plain) ?guard (g : Matrix.Csr.t)
    (h : Matrix.Dense.t) =
  Fusedmm.check ~name:"Host_fused.sddmm" Fusedmm.Sddmm_spmm g h;
  let nnz = Matrix.Csr.nnz g in
  let values = Array.make nnz 0.0 in
  if g.rows > 0 && nnz > 0 then
    graph_rows ?guard pool g ~out:values
      ~row_start:(fun r -> g.row_off.(r))
      (fun _ row lo hi -> edge_weights semiring g h ~row ~lo ~hi values ~base:0)
  else check_after guard values;
  Matrix.Csr.create ~rows:g.rows ~cols:g.cols ~values ~col_idx:g.col_idx
    ~row_off:g.row_off

let spmm ?pool ?semiring ?out ?guard (s : Matrix.Csr.t) (h : Matrix.Dense.t) =
  Fusedmm.check ~name:"Host_fused.spmm" Fusedmm.Spmm s h;
  fusedmm ?pool ?semiring ?out ?guard Fusedmm.Spmm s h

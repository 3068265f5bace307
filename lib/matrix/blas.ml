let gemv (x : Dense.t) y =
  if Array.length y <> x.cols then invalid_arg "Blas.gemv: dimension mismatch";
  let out = Array.make x.rows 0.0 in
  for r = 0 to x.rows - 1 do
    let base = r * x.cols in
    let acc = ref 0.0 in
    for c = 0 to x.cols - 1 do
      acc := !acc +. (x.data.(base + c) *. y.(c))
    done;
    out.(r) <- !acc
  done;
  out

let gemv_t (x : Dense.t) p =
  if Array.length p <> x.rows then
    invalid_arg "Blas.gemv_t: dimension mismatch";
  let out = Array.make x.cols 0.0 in
  for r = 0 to x.rows - 1 do
    let base = r * x.cols in
    let pr = p.(r) in
    if pr <> 0.0 then
      for c = 0 to x.cols - 1 do
        out.(c) <- out.(c) +. (x.data.(base + c) *. pr)
      done
  done;
  out

let csrmv (x : Csr.t) y =
  if Array.length y <> x.cols then
    invalid_arg "Blas.csrmv: dimension mismatch";
  let out = Array.make x.rows 0.0 in
  for r = 0 to x.rows - 1 do
    let acc = ref 0.0 in
    for i = x.row_off.(r) to x.row_off.(r + 1) - 1 do
      acc := !acc +. (x.values.(i) *. y.(x.col_idx.(i)))
    done;
    out.(r) <- !acc
  done;
  out

let csrmv_t (x : Csr.t) p =
  if Array.length p <> x.rows then
    invalid_arg "Blas.csrmv_t: dimension mismatch";
  let out = Array.make x.cols 0.0 in
  for r = 0 to x.rows - 1 do
    let pr = p.(r) in
    if pr <> 0.0 then
      for i = x.row_off.(r) to x.row_off.(r + 1) - 1 do
        let c = x.col_idx.(i) in
        out.(c) <- out.(c) +. (x.values.(i) *. pr)
      done
  done;
  out

let cscmv (x : Csc.t) y =
  if Array.length y <> x.cols then
    invalid_arg "Blas.cscmv: dimension mismatch";
  let out = Array.make x.rows 0.0 in
  for c = 0 to x.cols - 1 do
    let yc = y.(c) in
    if yc <> 0.0 then
      Csc.iter_col x c (fun r v -> out.(r) <- out.(r) +. (v *. yc))
  done;
  out

let finish_pattern ~alpha ~beta ~z w =
  Vec.scal alpha w;
  (match (beta, z) with
  | Some b, Some z -> Vec.axpy b z w
  | None, None -> ()
  | Some b, None ->
      if b <> 0.0 then invalid_arg "Blas.pattern: beta given without z"
  | None, Some _ -> invalid_arg "Blas.pattern: z given without beta");
  w

let pattern_sparse ~alpha x ?v y ?beta ?z () =
  let p = csrmv x y in
  let p = match v with None -> p | Some v -> Vec.mul_elementwise v p in
  let w = csrmv_t x p in
  finish_pattern ~alpha ~beta ~z w

let pattern_dense ~alpha x ?v y ?beta ?z () =
  let p = gemv x y in
  let p = match v with None -> p | Some v -> Vec.mul_elementwise v p in
  let w = gemv_t x p in
  finish_pattern ~alpha ~beta ~z w

(* ---- multicore variants ----------------------------------------------
   Parallel versions of the four matrix-vector products sharing one
   domain pool, so the unfused "library" baseline is as parallel as the
   fused host kernels and the comparison between them stays honest.
   Row-major products partition rows disjointly; transposed products
   are owner-computes — each worker reduces only the column slice it
   owns (dense: a uniform column stripe; sparse: nnz-weighted column
   tiles via [Tiles]) — so the per-worker full-width accumulators and
   the tree merge they needed are gone.  Inner loops are 4-way
   unrolled over unsafe accesses, the host analogue of the paper's TL
   register-unrolling trick. *)

let get_pool = function Some p -> p | None -> Par.Pool.default ()

(* Unrolled dot products.  Four independent accumulators hide FP-add
   latency; the combine order differs from the sequential reference by
   reassociation only (tests allow 1e-9 relative). *)
let unrolled_dot data base (y : float array) n =
  let acc0 = ref 0.0 and acc1 = ref 0.0 in
  let acc2 = ref 0.0 and acc3 = ref 0.0 in
  let c = ref 0 in
  while !c + 4 <= n do
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
  while !c < n do
    acc := !acc +. (Array.unsafe_get data (base + !c) *. Array.unsafe_get y !c);
    incr c
  done;
  !acc

let unrolled_sparse_dot values col_idx lo hi (y : float array) =
  let acc0 = ref 0.0 and acc1 = ref 0.0 in
  let acc2 = ref 0.0 and acc3 = ref 0.0 in
  let i = ref lo in
  while !i + 4 <= hi do
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
  while !i < hi do
    acc :=
      !acc
      +. Array.unsafe_get values !i
         *. Array.unsafe_get y (Array.unsafe_get col_idx !i);
    incr i
  done;
  !acc

let par_gemv ?pool (x : Dense.t) y =
  if Array.length y <> x.cols then
    invalid_arg "Blas.par_gemv: dimension mismatch";
  let pool = get_pool pool in
  let out = Array.make x.rows 0.0 in
  let data = x.data and cols = x.cols in
  Par.Pool.parallel_for pool ~lo:0 ~hi:x.rows (fun a b ->
      if Kf_obs.Host_stats.profiling () then
        Kf_obs.Host_stats.add_work ~rows:(b - a) ~nnz:((b - a) * cols);
      for r = a to b - 1 do
        Array.unsafe_set out r (unrolled_dot data (r * cols) y cols)
      done);
  out

(* Owner-computes dense X^T p: each worker owns a uniform column stripe
   [c_lo, c_hi), accumulates into its own [Acc] scratch buffer walking its
   column tiles over row blocks (so the streamed X block plus the w
   tile stay in L2), and writes only its own slice of the result —
   optionally folding the pattern epilogue [alpha * w + beta * z] into
   that final write.  [credit] accounts rows via a uniform bookkeeping
   split and elements as [rows * stripe_width], which sums exactly to
   the matrix totals across workers. *)
let owner_gemv_t ~pool ?tile_rows ?tile_cols ~credit ~alpha ?beta_z
    (x : Dense.t) p ~out =
  let workers = Par.Pool.size pool in
  let trows =
    match tile_rows with
    | Some n when n >= 1 -> n
    | _ -> Par.Tune.tile_rows ()
  in
  let tcols =
    match tile_cols with
    | Some n when n >= 1 -> n
    | _ -> Par.Tune.tile_cols ()
  in
  let cb = Par.Partition.uniform ~n:x.cols ~parts:workers in
  let rb = Par.Partition.uniform ~n:x.rows ~parts:workers in
  let data = x.data and cols = x.cols and rows = x.rows in
  let stripes =
    Array.init workers (fun wid ->
        Par.Pool.scratch pool Par.Pool.Acc ~wid (cb.(wid + 1) - cb.(wid)))
  in
  if Kf_obs.Host_stats.profiling () then begin
    Kf_obs.Host_stats.record_tiles
      ~count:(Stdlib.max workers ((cols + tcols - 1) / tcols));
    Kf_obs.Host_stats.record_merge_bytes_saved
      ~bytes:((workers - 1) * cols * 8 * 3)
  end;
  Par.Pool.run_workers pool (fun wid ->
      let c_lo = cb.(wid) and c_hi = cb.(wid + 1) in
      let width = c_hi - c_lo in
      if width > 0 then begin
        let w = stripes.(wid) in
        Array.fill w 0 width 0.0;
        if credit && Kf_obs.Host_stats.profiling () then
          Kf_obs.Host_stats.add_work
            ~rows:(rb.(wid + 1) - rb.(wid))
            ~nnz:(rows * width);
        let ct = ref c_lo in
        while !ct < c_hi do
          let ct_hi = Stdlib.min c_hi (!ct + tcols) in
          let rb0 = ref 0 in
          while !rb0 < rows do
            let rb_hi = Stdlib.min rows (!rb0 + trows) in
            for r = !rb0 to rb_hi - 1 do
              let pr = Array.unsafe_get p r in
              if pr <> 0.0 then begin
                let base = r * cols in
                let c = ref !ct in
                while !c + 4 <= ct_hi do
                  let c0 = !c in
                  let j0 = c0 - c_lo in
                  Array.unsafe_set w j0
                    (Array.unsafe_get w j0
                    +. (Array.unsafe_get data (base + c0) *. pr));
                  Array.unsafe_set w (j0 + 1)
                    (Array.unsafe_get w (j0 + 1)
                    +. (Array.unsafe_get data (base + c0 + 1) *. pr));
                  Array.unsafe_set w (j0 + 2)
                    (Array.unsafe_get w (j0 + 2)
                    +. (Array.unsafe_get data (base + c0 + 2) *. pr));
                  Array.unsafe_set w (j0 + 3)
                    (Array.unsafe_get w (j0 + 3)
                    +. (Array.unsafe_get data (base + c0 + 3) *. pr));
                  c := c0 + 4
                done;
                while !c < ct_hi do
                  let j = !c - c_lo in
                  Array.unsafe_set w j
                    (Array.unsafe_get w j
                    +. (Array.unsafe_get data (base + !c) *. pr));
                  incr c
                done
              end
            done;
            rb0 := rb_hi
          done;
          ct := ct_hi
        done;
        match beta_z with
        | None ->
            for c = c_lo to c_hi - 1 do
              Array.unsafe_set out c
                (alpha *. Array.unsafe_get w (c - c_lo))
            done
        | Some (beta, z) ->
            for c = c_lo to c_hi - 1 do
              Array.unsafe_set out c
                ((alpha *. Array.unsafe_get w (c - c_lo))
                +. (beta *. Array.unsafe_get z c))
            done
      end)

let par_gemv_t ?pool ?tile_rows ?tile_cols (x : Dense.t) p =
  if Array.length p <> x.rows then
    invalid_arg "Blas.par_gemv_t: dimension mismatch";
  let pool = get_pool pool in
  let workers = Par.Pool.size pool in
  if workers = 1 || x.rows = 0 || x.cols = 0 then begin
    if Kf_obs.Host_stats.profiling () then
      Kf_obs.Host_stats.add_work ~rows:x.rows ~nnz:(x.rows * x.cols);
    gemv_t x p
  end
  else begin
    let out = Array.make x.cols 0.0 in
    owner_gemv_t ~pool ?tile_rows ?tile_cols ~credit:true ~alpha:1.0 x p ~out;
    out
  end

let par_csrmv ?pool (x : Csr.t) y =
  if Array.length y <> x.cols then
    invalid_arg "Blas.par_csrmv: dimension mismatch";
  let pool = get_pool pool in
  let out = Array.make x.rows 0.0 in
  let values = x.values and col_idx = x.col_idx and row_off = x.row_off in
  Par.Pool.parallel_for pool ~lo:0 ~hi:x.rows (fun a b ->
      if Kf_obs.Host_stats.profiling () then
        Kf_obs.Host_stats.add_work ~rows:(b - a)
          ~nnz:(row_off.(b) - row_off.(a));
      for r = a to b - 1 do
        Array.unsafe_set out r
          (unrolled_sparse_dot values col_idx
             (Array.unsafe_get row_off r)
             (Array.unsafe_get row_off (r + 1))
             y)
      done);
  out

let par_csrmv_t ?pool ?tile_cols (x : Csr.t) p =
  if Array.length p <> x.rows then
    invalid_arg "Blas.par_csrmv_t: dimension mismatch";
  let pool = get_pool pool in
  let workers = Par.Pool.size pool in
  if workers = 1 || x.rows = 0 || x.cols = 0 || Csr.nnz x = 0 then begin
    if Kf_obs.Host_stats.profiling () then
      Kf_obs.Host_stats.add_work ~rows:x.rows
        ~nnz:(x.row_off.(x.rows) - x.row_off.(0));
    csrmv_t x p
  end
  else begin
    let t = Tiles.layout ?tile_cols ~parts:workers x in
    let out = Array.make x.cols 0.0 in
    Tiles.scatter ~pool ~credit:true t x ~p ~alpha:1.0 ~out ();
    out
  end

let par_pattern_sparse ?pool ~alpha x ?v y ?beta ?z () =
  let p = par_csrmv ?pool x y in
  let p = match v with None -> p | Some v -> Vec.mul_elementwise v p in
  let w = par_csrmv_t ?pool x p in
  finish_pattern ~alpha ~beta ~z w

let par_pattern_dense ?pool ~alpha x ?v y ?beta ?z () =
  let p = par_gemv ?pool x y in
  let p = match v with None -> p | Some v -> Vec.mul_elementwise v p in
  let w = par_gemv_t ?pool x p in
  finish_pattern ~alpha ~beta ~z w

type op_class = Pattern_op | Blas1_op | Other_op

type time_buckets = {
  mutable pattern_s : float;
  mutable blas1_s : float;
  mutable other_s : float;
}

let fresh_buckets () = { pattern_s = 0.0; blas1_s = 0.0; other_s = 0.0 }

let timed buckets cls f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  let dt = Unix.gettimeofday () -. t0 in
  (match cls with
  | Pattern_op -> buckets.pattern_s <- buckets.pattern_s +. dt
  | Blas1_op -> buckets.blas1_s <- buckets.blas1_s +. dt
  | Other_op -> buckets.other_s <- buckets.other_s +. dt);
  result

let total_seconds b = b.pattern_s +. b.blas1_s +. b.other_s

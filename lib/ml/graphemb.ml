open Matrix

type result = {
  embedding : Dense.t;
  iterations : int;
  delta : float;
  gpu_ms : float;
  trace : Fusion.Pattern.Trace.t;
  timeline : Session.iteration list;
}

(* The convex step for rows [lo, hi): each non-isolated node moves
   toward its degree-normalised attraction average [z]; isolated nodes
   keep their embedding.  Returns the largest per-coordinate move. *)
let step ~lr (g : Csr.t) (h : Dense.t) (z : Dense.t) ~lo ~hi =
  let d = h.cols and hd = h.data and zd = z.data in
  let dmax = ref 0.0 in
  for r = lo to hi - 1 do
    let deg = g.row_off.(r + 1) - g.row_off.(r) in
    if deg > 0 then begin
      let inv = lr /. float_of_int deg in
      for k = r * d to ((r + 1) * d) - 1 do
        let cur = Array.unsafe_get hd k in
        let next = ((1.0 -. lr) *. cur) +. (inv *. Array.unsafe_get zd k) in
        dmax := Float.max !dmax (Float.abs (next -. cur));
        Array.unsafe_set hd k next
      done
    end
  done;
  !dmax

(* Force2vec-style embedding training: each iteration pulls every node
   toward the sigmoid-weighted average of its neighbours' embeddings.
   The whole per-iteration force computation is one fused
   SDDMM ⊕ SpMM chain (sigmoid semiring): the sampled dot
   [<H_i, H_j>] measures how aligned an edge's endpoints already are,
   the logistic squashes it into an attraction weight, and the SpMM
   aggregates the weighted neighbour rows — all without materialising
   the nodes x nodes attraction matrix. *)
let run ?engine ?pool ?(iterations = 10) ?(lr = 0.5) ?(tolerance = 0.0)
    ?checkpoint ?ckpt_meta ?resume device (g : Csr.t) (h0 : Dense.t) =
  if g.rows <> g.cols then
    invalid_arg "Graphemb.run: adjacency matrix must be square";
  if h0.rows <> g.rows then
    invalid_arg "Graphemb.run: the embedding must have one row per node";
  if lr <= 0.0 || lr > 1.0 then
    invalid_arg "Graphemb.run: lr must be in (0, 1]";
  let session = Session.create ?engine ?pool device ~algorithm:"GraphEmb" in
  (match checkpoint with
  | Some (path, every) ->
      Session.set_checkpoint ?meta:ckpt_meta session ~path ~every
  | None -> ());
  Kf_obs.Trace.with_span "fit.GraphEmb" @@ fun () ->
  let n = g.rows and d = h0.cols in
  let h = Dense.create n d in
  Array.blit h0.data 0 h.data 0 (n * d);
  (* every iteration's attraction lands in this one matrix, and the
     update runs on static row ranges of the pool *)
  let z = Dense.create n d in
  let pool = match pool with Some p -> p | None -> Par.Pool.default () in
  let bounds = Par.Partition.uniform ~n ~parts:(Par.Pool.size pool) in
  let delta = ref infinity in
  let i = ref 0 in
  (match resume with
  | Some path ->
      let st = Session.resume session ~path in
      let data = Kf_resil.Ckpt.get_floats st "graphemb.h" in
      if Array.length data <> n * d then
        invalid_arg "Graphemb.run: checkpoint embedding has the wrong shape";
      Array.blit data 0 h.data 0 (n * d);
      delta := Kf_resil.Ckpt.get_float st "graphemb.delta";
      i := Kf_resil.Ckpt.get_int st "graphemb.i"
  | None -> ());
  Session.set_state_fn session (fun () ->
      [
        ("graphemb.h", Kf_resil.Ckpt.Floats (Array.copy h.data));
        ("graphemb.delta", Kf_resil.Ckpt.Float !delta);
        ("graphemb.i", Kf_resil.Ckpt.Int !i);
      ]);
  while !i < iterations && !delta > tolerance do
    Session.iteration session (fun () ->
        ignore
          (Session.fusedmm ~semiring:Fusion.Semiring.sigmoid ~out:z session
             Fusion.Fusedmm.Sddmm_spmm g h);
        (* the max is exact and order-free, so the per-range maxima fold
           to the bits a sequential pass gives *)
        let dmax =
          Par.Pool.map_workers pool (fun wid ->
              step ~lr g h z ~lo:bounds.(wid) ~hi:bounds.(wid + 1))
        in
        delta := Array.fold_left Float.max 0.0 dmax;
        incr i)
  done;
  {
    embedding = h;
    iterations = !i;
    delta = !delta;
    gpu_ms = Session.gpu_ms session;
    trace = Session.trace session;
    timeline = Session.timeline session;
  }

(* --- unified algorithm API ------------------------------------------------ *)

let default_dim = 8

let embedding_cols (h : Dense.t) =
  Array.init h.cols (fun c ->
      Array.init h.rows (fun r -> h.data.((r * h.cols) + c)))

module Algo = struct
  let name = "graphemb"

  let display_name = "GraphEmb"

  let train ~(cfg : Algorithm.train_cfg) (p : Algorithm.problem) =
    (* Like HITS: the regression features only size the graph — one
       node per feature row, built from the same generator seed. *)
    let rng = Rng.create p.seed in
    let nodes = Fusion.Executor.rows p.input in
    let g = Dataset.adjacency rng ~nodes ~out_degree:8 in
    let h0 = Gen.dense rng ~rows:nodes ~cols:default_dim in
    let r =
      run ~engine:cfg.engine ?iterations:cfg.max_iterations
        ?checkpoint:cfg.checkpoint ~ckpt_meta:cfg.ckpt_meta ?resume:cfg.resume
        p.device g h0
    in
    {
      Algorithm.label =
        Printf.sprintf "%d iterations, dim %d, delta %g" r.iterations
          r.embedding.cols r.delta;
      fields =
        [
          ("iterations", Kf_obs.Json.Int r.iterations);
          ("dim", Kf_obs.Json.Int r.embedding.cols);
          ("delta", Kf_obs.Json.Float r.delta);
        ];
      weights =
        {
          Algorithm.vecs = embedding_cols r.embedding;
          cols = nodes;
          extra = [ ("model.dim", Kf_resil.Ckpt.Int r.embedding.cols) ];
        };
      gpu_ms = r.gpu_ms;
      trace = r.trace;
      timeline = r.timeline;
    }

  let scorer (w : Algorithm.weights) =
    {
      Algorithm.s_vecs = w.vecs;
      s_finish =
        (fun margins ->
          (* mean over embedding dimensions: one score per input row *)
          let k = Array.length margins in
          let n = Array.length margins.(0) in
          Array.init n (fun r ->
              let acc = ref 0.0 in
              Array.iter (fun m -> acc := !acc +. m.(r)) margins;
              !acc /. float_of_int k));
    }
end

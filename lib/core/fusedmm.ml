open Gpu_sim

type instantiation = Spmm | Sddmm_spmm

let instantiations = [ Sddmm_spmm; Spmm ]

let inst_key = function Spmm -> "spmm" | Sddmm_spmm -> "sddmm_spmm"

let inst_label = function Spmm -> "spmm" | Sddmm_spmm -> "sddmm+spmm"

let family_id = "fusedmm"

let descriptor ~semiring inst =
  {
    Pattern_family.family = family_id;
    inst = Printf.sprintf "%s:%s" (inst_key inst) semiring;
    label = Printf.sprintf "%s[%s]" (inst_label inst) semiring;
  }

let of_descriptor (d : Pattern_family.descriptor) =
  if d.family <> family_id then None
  else
    match String.index_opt d.inst ':' with
    | None -> None
    | Some i ->
        let k = String.sub d.inst 0 i in
        let sr =
          String.sub d.inst (i + 1) (String.length d.inst - i - 1)
        in
        let inst =
          List.find_opt (fun x -> inst_key x = k) instantiations
        in
        Option.bind inst (fun inst ->
            Option.map (fun sr -> (inst, sr)) (Semiring.find sr))

module Family = struct
  let family = family_id

  (* semiring-major so each semiring's chain sits next to its floor *)
  let instantiations =
    List.concat_map
      (fun (s : Semiring.t) ->
        List.map (fun i -> descriptor ~semiring:s.name i) instantiations)
      Semiring.all

  let partials d =
    match of_descriptor d with
    | None -> invalid_arg ("Fusedmm.Family: not a fusedmm descriptor: " ^ d.inst)
    | Some (Sddmm_spmm, sr) ->
        [ descriptor ~semiring:sr.name Sddmm_spmm;
          descriptor ~semiring:sr.name Spmm ]
    | Some (Spmm, sr) -> [ descriptor ~semiring:sr.name Spmm ]

  let paper_algorithms d =
    match of_descriptor d with
    | Some (Sddmm_spmm, sr) when sr.name = "sigmoid" -> [ "GraphEmb" ]
    | Some (Spmm, sr) when sr.name = "plain" -> [ "PageRank" ]
    | _ -> []
end

let () = Pattern_family.register (module Family)

(* ---- argument validation ------------------------------------------------- *)

let check_sddmm ~name (g : Matrix.Csr.t) (h : Matrix.Dense.t) =
  if g.rows <> g.cols then
    invalid_arg (name ^ ": the graph must be square (nodes x nodes)");
  if g.rows <> h.rows then
    invalid_arg (name ^ ": the embedding must have one row per node")

let check_spmm ~name (s : Matrix.Csr.t) (h : Matrix.Dense.t) =
  if s.cols <> h.rows then
    invalid_arg (name ^ ": S columns must match the embedding's rows")

let check ~name inst g h =
  match inst with
  | Sddmm_spmm -> check_sddmm ~name g h
  | Spmm -> check_spmm ~name g h

(* ---- sequential reference kernels ---------------------------------------- *)

let dot_rows (h : Matrix.Dense.t) i j =
  let d = h.cols and data = h.data in
  let bi = i * d and bj = j * d in
  let acc = ref 0.0 in
  for c = 0 to d - 1 do
    acc :=
      !acc
      +. (Array.unsafe_get data (bi + c) *. Array.unsafe_get data (bj + c))
  done;
  !acc

let sddmm ?(semiring = Semiring.plain) (g : Matrix.Csr.t) (h : Matrix.Dense.t)
    =
  check_sddmm ~name:"Fusedmm.sddmm" g h;
  let values = Array.make (Matrix.Csr.nnz g) 0.0 in
  for i = 0 to g.rows - 1 do
    for e = g.row_off.(i) to g.row_off.(i + 1) - 1 do
      let j = g.col_idx.(e) in
      values.(e) <-
        g.values.(e) *. Semiring.apply_edge semiring (dot_rows h i j)
    done
  done;
  Matrix.Csr.create ~rows:g.rows ~cols:g.cols ~values ~col_idx:g.col_idx
    ~row_off:g.row_off

(* Fold one source row's neighbours into [acc] (length d), starting
   from the semiring identity; returns false when the row has no stored
   entries (the caller zeroes the output row — the identity is an
   implementation detail of the fold, not a result). *)
let fold_row (sr : Semiring.t) inst (g : Matrix.Csr.t) (h : Matrix.Dense.t)
    ~row ~acc =
  let d = h.cols in
  let s = g.row_off.(row) and e = g.row_off.(row + 1) in
  if e <= s then false
  else begin
    Array.fill acc 0 d (Semiring.identity sr);
    for k = s to e - 1 do
      let j = Array.unsafe_get g.col_idx k in
      let v = Array.unsafe_get g.values k in
      let a =
        match inst with
        | Spmm -> v
        | Sddmm_spmm -> v *. Semiring.apply_edge sr (dot_rows h row j)
      in
      let bj = j * d in
      for c = 0 to d - 1 do
        Array.unsafe_set acc c
          (Semiring.combine sr
             (Array.unsafe_get acc c)
             (a *. Array.unsafe_get h.data (bj + c)))
      done
    done;
    true
  end

let fused ?(semiring = Semiring.plain) inst (g : Matrix.Csr.t)
    (h : Matrix.Dense.t) =
  check ~name:"Fusedmm.fused" inst g h;
  let d = h.cols in
  let z = Matrix.Dense.create g.rows d in
  let acc = Array.make d 0.0 in
  for i = 0 to g.rows - 1 do
    if fold_row semiring inst g h ~row:i ~acc then
      Array.blit acc 0 z.data (i * d) d
  done;
  z

let spmm ?(semiring = Semiring.plain) (s : Matrix.Csr.t) (h : Matrix.Dense.t) =
  check_spmm ~name:"Fusedmm.spmm" s h;
  fused ~semiring Spmm s h

(* ---- simulated-GPU kernels ----------------------------------------------- *)

let plan_launch (p : Tuning.sparse_plan) =
  Launch.v ~grid_blocks:p.sp_grid ~block_size:p.sp_bs ~vs:p.sp_vs
    ~coarsening:p.sp_coarsening ~regs_per_thread:p.sp_regs
    ~shared_per_block:p.sp_shared_bytes ()

let degenerate (g : Matrix.Csr.t) (h : Matrix.Dense.t) =
  g.rows = 0 || h.cols = 0 || Matrix.Csr.nnz g = 0

let get_plan ?plan device g =
  match plan with Some p -> p | None -> Tuning.sparse_plan device g

(* Charge the sparse structure walk: values + column indices once end to
   end, row offsets twice per row, coalesced. *)
let charge_structure ctx (g : Matrix.Csr.t) =
  let nnz = Matrix.Csr.nnz g in
  Sim.load_segment ctx ~bytes_per_elt:8 ~start:0 ~count:nnz;
  Sim.load_segment ctx ~bytes_per_elt:4 ~start:0 ~count:nnz;
  Sim.load_segment ctx ~bytes_per_elt:4 ~start:0 ~count:(g.rows + 1)

(* Gather the neighbour rows of H through the read-only path: each
   stored edge fetches a contiguous [8 * d]-byte row slice at an
   irregular (but per-row sorted) index. *)
let charge_h_gathers ctx (g : Matrix.Csr.t) ~d =
  for row = 0 to g.rows - 1 do
    let s = g.row_off.(row) and e = g.row_off.(row + 1) in
    if e > s then
      Sim.load_gather_sorted ctx ~bytes_per_elt:(8 * d) ~indices:g.col_idx
        ~lo:s ~hi:e
  done

(* Hierarchical aggregation accounting: the per-edge dot product lives
   in registers and collapses with one shuffle tree per edge; the
   d-wide row accumulator lives in shared memory (each edge updates it
   once, conflict-free since lanes cover distinct columns); output rows
   are disjoint so the final write is one coalesced store — no global
   atomics anywhere, which is where the fused graph kernel differs
   from Equation 1's column-scatter. *)
let charge_aggregation ctx ~nnz ~d ~rows_out =
  let warp_requests_per_edge = (d + 31) / 32 in
  Sim.shared_access ctx ~warp_requests:(nnz * warp_requests_per_edge)
    ~conflict_ways:1;
  Sim.barrier ctx;
  Sim.store_segment ctx ~bytes_per_elt:8 ~start:0 ~count:(rows_out * d)

let sim_fused ?plan device (sr : Semiring.t) inst (g : Matrix.Csr.t)
    (h : Matrix.Dense.t) =
  check ~name:"Fusedmm.sim_fused" inst g h;
  let plan = get_plan ?plan device g in
  if degenerate g h then (Matrix.Dense.create g.rows h.cols, [], plan)
  else begin
    let d = h.cols in
    let nnz = Matrix.Csr.nnz g in
    let launch = plan_launch plan in
    let name = Printf.sprintf "fusedmm_%s_%s" (inst_key inst) sr.name in
    let z, report =
      Sim.run device launch ~name (fun ctx ->
          charge_structure ctx g;
          (* one gather of each neighbour row serves both the sampled
             dot and the aggregation: the row is live in registers
             between the two uses (the FusedMM point) *)
          charge_h_gathers ctx g ~d;
          (match inst with
          | Sddmm_spmm ->
              (* H_i rows stream coalesced, in row order *)
              Sim.load_segment ctx ~bytes_per_elt:8 ~start:0
                ~count:(g.rows * d);
              Sim.flops ctx (nnz * ((4 * d) + 4));
              let vs = ctx.launch.vs in
              for _ = 1 to nnz do
                Sim.shuffle_reduce ctx ~width:vs
              done
          | Spmm -> Sim.flops ctx (nnz * 2 * d));
          charge_aggregation ctx ~nnz ~d ~rows_out:g.rows;
          fused ~semiring:sr inst g h)
    in
    (z, [ report ], plan)
  end

let sim_sddmm ?plan device (sr : Semiring.t) (g : Matrix.Csr.t)
    (h : Matrix.Dense.t) =
  check_sddmm ~name:"Fusedmm.sim_sddmm" g h;
  let plan = get_plan ?plan device g in
  (* degenerate shapes still honour the semantics (a zero-width H means
     S_ij = G_ij * edge 0), just without charging a phantom launch *)
  if degenerate g h then (sddmm ~semiring:sr g h, [], plan)
  else begin
    let d = h.cols in
    let nnz = Matrix.Csr.nnz g in
    let launch = plan_launch plan in
    let s, report =
      Sim.run device launch ~name:("sddmm_" ^ sr.name) (fun ctx ->
          charge_structure ctx g;
          charge_h_gathers ctx g ~d;
          Sim.load_segment ctx ~bytes_per_elt:8 ~start:0 ~count:(g.rows * d);
          Sim.flops ctx (nnz * ((2 * d) + 4));
          let vs = ctx.launch.vs in
          for _ = 1 to nnz do
            Sim.shuffle_reduce ctx ~width:vs
          done;
          (* materialise S: the traffic the fused kernel deletes *)
          Sim.store_segment ctx ~bytes_per_elt:8 ~start:0 ~count:nnz;
          sddmm ~semiring:sr g h)
    in
    (s, [ report ], plan)
  end

let sim_spmm ?plan device (sr : Semiring.t) (s : Matrix.Csr.t)
    (h : Matrix.Dense.t) =
  check_spmm ~name:"Fusedmm.sim_spmm" s h;
  let plan = get_plan ?plan device s in
  if degenerate s h then (Matrix.Dense.create s.rows h.cols, [], plan)
  else begin
    let d = h.cols in
    let nnz = Matrix.Csr.nnz s in
    let launch = plan_launch plan in
    let z, report =
      Sim.run device launch ~name:("spmm_" ^ sr.name) (fun ctx ->
          charge_structure ctx s;
          charge_h_gathers ctx s ~d;
          Sim.flops ctx (nnz * 2 * d);
          charge_aggregation ctx ~nnz ~d ~rows_out:s.rows;
          fused ~semiring:sr Spmm s h)
    in
    (z, [ report ], plan)
  end

module View = Mis_graph.View
module Stage = Rand_plan.Stage

type trace = {
  in_block : bool array;
  i1 : bool array;
  fallback_nodes : int;
  rounds : int;
}

let ceil_log2 n =
  let rec loop k acc = if acc >= n then k else loop (k + 1) (2 * acc) in
  loop 0 1

let gamma_default ~n = max 1 (2 * ceil_log2 (max n 2))

let count = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0

(* Finish a stage-1 independent set into an MIS (shared by all variants):
   defensive violation removal, then Luby on the uncovered remainder. *)
let finish view plan blocks i1_raw =
  let n = View.n view in
  let i1 = Mis.remove_violations view i1_raw in
  let rest = Mis.uncovered view i1 in
  let fallback_nodes = count rest in
  let final, luby_rounds =
    if fallback_nodes = 0 then (i1, 0)
    else begin
      let joined, phases =
        Luby.fallback ~stage:Stage.color_mis_luby view ~nodes:rest plan
      in
      (Array.init n (fun u -> i1.(u) || joined.(u)), 3 * phases)
    end
  in
  let rounds = blocks.Construct_block.rounds + 1 + luby_rounds in
  ( final,
    { in_block = blocks.Construct_block.in_block; i1; fallback_nodes; rounds } )

let run_traced ?(p = 0.5) ?gamma view ~coloring ~k plan =
  if k < 1 then invalid_arg "Color_mis.run: k";
  let n = View.n view in
  if Array.length coloring <> n then invalid_arg "Color_mis.run: coloring length";
  let gamma = match gamma with
    | Some g -> if g < 1 then invalid_arg "Color_mis.run: gamma" else g
    | None -> gamma_default ~n
  in
  let cfg =
    { Construct_block.gamma;
      radius_of =
        (fun u ->
          Rand_plan.node_radius plan ~stage:Stage.color_mis_radius ~node:u ~p
            ~gamma);
      payload_of =
        (fun u -> Rand_plan.node_int plan ~stage:Stage.color_mis_choice ~node:u ~bound:k);
      flip_per_hop = false }
  in
  let blocks = Construct_block.run view cfg in
  let i1_raw =
    Array.init n (fun u ->
        blocks.Construct_block.in_block.(u)
        && coloring.(u) >= 0
        && coloring.(u) = blocks.Construct_block.payload.(u))
  in
  (* Violation removal inside [finish] is a no-op when [coloring] is
     proper; it keeps the output a valid MIS even for a broken coloring. *)
  finish view plan blocks i1_raw

let run ?p ?gamma view ~coloring ~k plan =
  fst (run_traced ?p ?gamma view ~coloring ~k plan)

let run_adaptive ?(p = 0.5) ?gamma view ~coloring plan =
  let n = View.n view in
  if Array.length coloring <> n then
    invalid_arg "Color_mis.run_adaptive: coloring length";
  let gamma = match gamma with
    | Some g -> if g < 1 then invalid_arg "Color_mis.run_adaptive: gamma" else g
    | None -> gamma_default ~n
  in
  let cfg =
    { Construct_block.gamma;
      radius_of =
        (fun u ->
          Rand_plan.node_radius plan ~stage:Stage.color_mis_radius ~node:u ~p
            ~gamma);
      payload_of = (fun _ -> 0);
      flip_per_hop = false }
  in
  let blocks = Construct_block.run view cfg in
  (* The leader counts the distinct colors present in its block (an extra
     O(gamma)-round aggregation in a real execution) and picks one
     uniformly. *)
  let block_colors : (int, int list ref) Hashtbl.t = Hashtbl.create 64 in
  View.iter_active view (fun u ->
      if blocks.Construct_block.in_block.(u) && coloring.(u) >= 0 then begin
        let leader = blocks.Construct_block.leader.(u) in
        match Hashtbl.find_opt block_colors leader with
        | Some colors ->
          if not (List.mem coloring.(u) !colors) then
            colors := coloring.(u) :: !colors
        | None -> Hashtbl.add block_colors leader (ref [ coloring.(u) ])
      end);
  let chosen : (int, int) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun leader colors ->
      let sorted = List.sort compare !colors in
      let k = List.length sorted in
      let pick =
        List.nth sorted
          (Rand_plan.node_int plan ~stage:Stage.color_mis_choice ~node:leader
             ~bound:k)
      in
      Hashtbl.replace chosen leader pick)
    block_colors;
  let i1_raw =
    Array.init n (fun u ->
        blocks.Construct_block.in_block.(u)
        && coloring.(u) >= 0
        && Hashtbl.find_opt chosen blocks.Construct_block.leader.(u)
           = Some coloring.(u))
  in
  finish view plan blocks i1_raw

let run_planar ?p ?gamma view plan =
  let coloring = Distributed_coloring.planar view plan in
  let mis, trace =
    run_traced ?p ?gamma view
      ~coloring:coloring.Distributed_coloring.colors
      ~k:coloring.Distributed_coloring.palette plan
  in
  (mis, { trace with rounds = trace.rounds + coloring.Distributed_coloring.rounds })

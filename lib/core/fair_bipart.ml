module View = Mis_graph.View
module Stage = Rand_plan.Stage

type trace = {
  in_block : bool array;
  i1 : bool array;
  violations_removed : int;
  fallback_nodes : int;
  rounds : int;
}

let ceil_log2 n =
  let rec loop k acc = if acc >= n then k else loop (k + 1) (2 * acc) in
  loop 0 1

let gamma_default ~n = max 1 (2 * ceil_log2 (max n 2))

let count = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0

let run_traced ?(p = 0.5) ?gamma view plan =
  let n = View.n view in
  let gamma = match gamma with
    | Some g -> if g < 1 then invalid_arg "Fair_bipart.run: gamma" else g
    | None -> gamma_default ~n
  in
  let cfg =
    { Construct_block.gamma;
      radius_of =
        (fun u ->
          Rand_plan.node_radius plan ~stage:Stage.fair_bipart_radius ~node:u ~p
            ~gamma);
      payload_of =
        (fun u ->
          if Rand_plan.node_bit plan ~stage:Stage.fair_bipart_bit ~node:u then 1
          else 0);
      flip_per_hop = true }
  in
  let blocks = Construct_block.run view cfg in
  let i1_raw =
    Array.init n (fun u ->
        blocks.Construct_block.in_block.(u) && blocks.Construct_block.payload.(u) = 1)
  in
  (* Defensive repair: a no-op on bipartite graphs (Lemma 14). *)
  let i1 = Mis.remove_violations view i1_raw in
  let violations_removed = count i1_raw - count i1 in
  let rest = Mis.uncovered view i1 in
  let fallback_nodes = count rest in
  let final, luby_rounds =
    if fallback_nodes = 0 then (i1, 0)
    else begin
      let joined, phases =
        Luby.fallback ~stage:Stage.fair_bipart_luby view ~nodes:rest plan
      in
      (Array.init n (fun u -> i1.(u) || joined.(u)), 3 * phases)
    end
  in
  let rounds = blocks.Construct_block.rounds + 1 + luby_rounds in
  ( final,
    { in_block = blocks.Construct_block.in_block; i1; violations_removed;
      fallback_nodes; rounds } )

let run ?p ?gamma view plan = fst (run_traced ?p ?gamma view plan)

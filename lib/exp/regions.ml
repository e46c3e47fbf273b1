module View = Mis_graph.View
module Graph = Mis_graph.Graph
module Rand_plan = Fairmis.Rand_plan

let light cfg = { cfg with Config.trials = min cfg.Config.trials 2000 }

(* An alternating tree (locally 2-colorable, Luby-unfair) joined by a
   single edge to a clique (locally high-chromatic). *)
let build ~branch ~depth ~clique =
  let tree = Mis_workload.Trees.alternating ~branch ~depth in
  let nt = Graph.n tree in
  let edges =
    Array.to_list (Graph.edges tree)
    @ (let acc = ref [] in
       for i = 0 to clique - 1 do
         for j = i + 1 to clique - 1 do
           acc := (nt + i, nt + j) :: !acc
         done
       done;
       (* Glue the clique to the last tree node (a leaf). *)
       (nt - 1, nt) :: !acc)
  in
  let g = Graph.of_edges ~n:(nt + clique) edges in
  let in_clique = Array.init (nt + clique) (fun u -> u >= nt) in
  (g, in_clique)

let region_summary counts trials select =
  let lo = ref infinity and hi = ref neg_infinity in
  Array.iteri
    (fun u c ->
      if select u then begin
        let f = float_of_int c /. float_of_int trials in
        if f < !lo then lo := f;
        if f > !hi then hi := f
      end)
    counts;
  (!lo, !hi, if !lo = 0. then infinity else !hi /. !lo)

let run cfg =
  let cfg = light cfg in
  Printf.printf
    "== regions: per-region fairness, tree glued to a clique (Sec. VII remark) [%s]\n"
    (Config.describe cfg);
  let g, in_clique = build ~branch:30 ~depth:3 ~clique:40 in
  let view = View.full g in
  (* Tree interior: tree nodes at distance >= 2 from the junction. *)
  let junction = ref 0 in
  Array.iteri (fun u c -> if c && !junction = 0 then junction := u) in_clique;
  let dist = Mis_graph.Traverse.bfs_from view !junction in
  let interior = Array.init (Graph.n g) (fun u -> (not in_clique.(u)) && dist.(u) >= 2) in
  Printf.printf "graph: %d tree nodes + %d clique nodes\n"
    (Graph.n g - 40) 40;
  let adaptive ~seed =
    let plan = Rand_plan.make seed in
    (* Hybrid coloring: the tree region peels at bound 2 (arboricity 1) and
       gets at most 3 colors; the clique core keeps its (deg+1) palette. *)
    let coloring =
      Fairmis.Distributed_coloring.hybrid view plan ~degree_bound:2
    in
    fst
      (Fairmis.Color_mis.run_adaptive view
         ~coloring:coloring.Fairmis.Distributed_coloring.colors plan)
  in
  (* Per-chunk runners: [prepare view] compiles Luby's kernel topology
     once for the whole estimate. *)
  let algorithms =
    [ ("ColorMIS adaptive-k", fun () -> adaptive);
      ("ColorMIS global-k", Runners.color_mis_greedy.Runners.prepare view);
      ("Luby's", Runners.luby.Runners.prepare view) ]
  in
  let header =
    [ "algorithm"; "tree min P"; "tree F"; "clique min P"; "clique F" ]
  in
  let body =
    List.map
      (fun (name, instantiate) ->
        let counts =
          Mis_stats.Montecarlo.run_ctx
            ~check:(fun mis -> Fairmis.Mis.verify ~name view mis)
            (Config.montecarlo cfg) ~n:(Graph.n g) ~ctx:instantiate
            (fun run ~seed -> run ~seed)
        in
        let t_lo, _, t_f =
          region_summary counts cfg.Config.trials (fun u -> interior.(u))
        in
        let c_lo, _, c_f =
          region_summary counts cfg.Config.trials (fun u -> in_clique.(u))
        in
        [ name; Printf.sprintf "%.3f" t_lo; Table.float_cell t_f;
          Printf.sprintf "%.4f" c_lo; Table.float_cell c_f ])
      algorithms
  in
  Table.print ~header body;
  print_endline
    "(the paper's remark: ColorMIS runs on any graph and yields good\n\
    \ inequality factors in the regions that can be colored with few\n\
    \ colors. The tree region is 2-colorable: with the adaptive per-block\n\
    \ color count its factor stays near the local chromatic number, while\n\
    \ Luby's tree-region factor grows with the branching factor; inside\n\
    \ the clique every algorithm is Omega(n)-limited.)\n"

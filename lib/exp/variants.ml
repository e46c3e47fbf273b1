module View = Mis_graph.View
module Empirical = Mis_stats.Empirical

let light cfg = { cfg with Config.trials = min cfg.Config.trials 3000 }

let run cfg =
  let cfg = light cfg in
  Printf.printf "== variants: priority vs degree-marking Luby [%s]\n"
    (Config.describe cfg);
  let topologies =
    [ ("star-256", Mis_workload.Trees.star 256);
      ("alternating-B30", Mis_workload.Trees.alternating ~branch:30 ~depth:3);
      ("binary-tree-d8", Mis_workload.Trees.complete_kary ~branch:2 ~depth:8);
      ("dartmouth-like", Mis_workload.Real_world.dartmouth_like ~seed:cfg.Config.seed) ]
  in
  let header =
    [ "tree"; "Luby(priority) F"; "min P"; "Luby-A(degree) F"; "min P";
      "FairTree F" ]
  in
  let body =
    List.map
      (fun (name, g) ->
        let view = View.full g in
        let b = Runners.measure cfg view Runners.luby in
        let a = Runners.measure cfg view Runners.luby_degree in
        let f = Runners.measure cfg view Runners.fair_tree in
        [ name;
          Table.float_cell (Empirical.inequality_factor b);
          Printf.sprintf "%.4f" (Empirical.min_frequency b);
          Table.float_cell (Empirical.inequality_factor a);
          Printf.sprintf "%.4f" (Empirical.min_frequency a);
          Table.float_cell (Empirical.inequality_factor f) ])
      topologies
  in
  Table.print ~header body;
  print_endline
    "(both classic variants are unfair on irregular trees; FairTree is the\n\
    \ only one with a guarantee.)\n"

(* Tests for Mis checkers, Luby (kernel and message program), and
   CntrlFairBipart. *)

module Graph = Mis_graph.Graph
module View = Mis_graph.View
module Traverse = Mis_graph.Traverse
module Splitmix = Mis_util.Splitmix
module Mis = Fairmis.Mis
module Luby = Fairmis.Luby
module Cfb = Fairmis.Cntrl_fair_bipart
module Rand_plan = Fairmis.Rand_plan

let plan seed = Rand_plan.make seed

let test_remove_violations () =
  let g = Mis_workload.Trees.path 4 in
  let v = View.full g in
  let cleaned = Mis.remove_violations v [| true; true; false; true |] in
  Alcotest.check Helpers.bool_array "both endpoints removed"
    [| false; false; false; true |] cleaned

let test_uncovered () =
  let g = Mis_workload.Trees.path 5 in
  let v = View.full g in
  let u = Mis.uncovered v [| true; false; false; false; false |] in
  Alcotest.check Helpers.bool_array "tail uncovered"
    [| false; false; true; true; true |] u

let test_violations_list () =
  let g = Mis_workload.Trees.path 3 in
  let v = View.full g in
  Alcotest.(check (list (pair int int))) "one violation" [ (0, 1) ]
    (Mis.violations v [| true; true; false |])

let test_verify_raises () =
  let g = Mis_workload.Trees.path 3 in
  let v = View.full g in
  Alcotest.(check bool) "invalid raises" true
    (match Mis.verify ~name:"t" v [| true; true; false |] with
    | exception Mis.Invalid _ -> true
    | _ -> false)

(* Luby *)

let prop_luby_valid_on_trees =
  Helpers.qtest "luby: valid MIS on random trees"
    QCheck.(triple (int_range 1 60) Helpers.arb_seed Helpers.arb_seed)
    (fun (n, gseed, seed) ->
      let g = Helpers.random_tree ~seed:gseed ~n in
      let v = View.full g in
      let mis = Luby.run v (plan seed) in
      Mis.is_mis v mis)

let prop_luby_valid_on_random_graphs =
  Helpers.qtest "luby: valid MIS on random graphs"
    QCheck.(triple (int_range 1 40) Helpers.arb_seed Helpers.arb_seed)
    (fun (n, gseed, seed) ->
      let g = Helpers.random_graph ~seed:gseed ~n ~p:0.2 in
      let v = View.full g in
      let mis = Luby.run v (plan seed) in
      Mis.is_mis v mis)

let prop_luby_valid_on_views =
  Helpers.qtest ~count:60 "luby: valid MIS on masked views"
    QCheck.(triple (int_range 2 40) Helpers.arb_seed Helpers.arb_seed)
    (fun (n, gseed, seed) ->
      let g = Helpers.random_graph ~seed:gseed ~n ~p:0.25 in
      let mask_rng = Splitmix.of_seed (gseed + 77) in
      let nodes = Array.init n (fun _ -> Splitmix.bool mask_rng) in
      let v = View.induced g nodes in
      let mis = Luby.run v (plan seed) in
      Mis.is_mis v mis
      && Array.for_all2 (fun active m -> active || not m) nodes mis)

let test_luby_clique () =
  (* Exactly one node of a clique joins. *)
  let g = Mis_workload.Special.clique 20 in
  let v = View.full g in
  for seed = 0 to 20 do
    let mis = Luby.run v (plan seed) in
    let size = Array.fold_left (fun a b -> if b then a + 1 else a) 0 mis in
    Alcotest.(check int) "singleton" 1 size
  done

let test_luby_isolated () =
  let g = Graph.of_edges ~n:3 [] in
  let mis = Luby.run (View.full g) (plan 1) in
  Alcotest.check Helpers.bool_array "all isolated join" [| true; true; true |] mis

let test_luby_deterministic_per_seed () =
  let g = Helpers.random_tree ~seed:3 ~n:50 in
  let v = View.full g in
  Alcotest.check Helpers.bool_array "same seed, same output"
    (Luby.run v (plan 9)) (Luby.run v (plan 9))

let prop_luby_fast_matches_distributed =
  Helpers.qtest ~count:60 "luby: fast engine = distributed engine"
    QCheck.(triple (int_range 1 30) Helpers.arb_seed Helpers.arb_seed)
    (fun (n, gseed, seed) ->
      let g = Helpers.random_graph ~seed:gseed ~n ~p:0.2 in
      let v = View.full g in
      let fast = Luby.run v (plan seed) in
      let outcome = Luby.run_distributed v (plan seed) in
      Array.for_all (fun b -> b) outcome.Mis_sim.Runtime.decided
      && fast = outcome.Mis_sim.Runtime.output)

let test_luby_star_exact_probabilities () =
  (* On a star, priority Luby resolves in one phase: the hub joins iff it
     wins the first comparison (probability exactly 1/n), otherwise all
     leaves join. So P(hub) = 1/n and P(leaf) = 1 - 1/n exactly. *)
  let n = 16 in
  let g = Mis_workload.Trees.star n in
  let v = View.full g in
  let trials = 20_000 in
  let hub = ref 0 and leaf = ref 0 in
  for seed = 0 to trials - 1 do
    let mis = Luby.run v (plan seed) in
    if mis.(0) then incr hub;
    if mis.(1) then incr leaf
  done;
  let hub_freq = float_of_int !hub /. float_of_int trials in
  let leaf_freq = float_of_int !leaf /. float_of_int trials in
  Alcotest.(check bool) "hub ~ 1/n" true (abs_float (hub_freq -. (1. /. 16.)) < 0.01);
  Alcotest.(check bool) "leaf ~ 1 - 1/n" true
    (abs_float (leaf_freq -. (15. /. 16.)) < 0.01)

let test_luby_phases_logarithmic () =
  (* Not a proof, just a regression guard: phases stay small. *)
  let g = Helpers.random_tree ~seed:5 ~n:2000 in
  let v = View.full g in
  (* A phase spans 3 rounds; the last one ends at its round 1 or 2. *)
  let rounds = (Luby.run_kernel v (plan 4)).Mis_sim.Kernel.rounds in
  let phases = ((rounds - 1) / 3) + 1 in
  if phases > 30 then Alcotest.failf "too many phases: %d" phases

(* Luby's original degree-based variant (Algorithm A) *)

module Luby_degree = Fairmis.Luby_degree

let prop_luby_degree_valid =
  Helpers.qtest "luby_degree: valid MIS on random graphs"
    QCheck.(triple (int_range 1 40) Helpers.arb_seed Helpers.arb_seed)
    (fun (n, gseed, seed) ->
      let g = Helpers.random_graph ~seed:gseed ~n ~p:0.2 in
      let v = View.full g in
      Mis.is_mis v (Luby_degree.run v (plan seed)))

let prop_luby_degree_valid_on_trees =
  Helpers.qtest "luby_degree: valid MIS on random trees"
    QCheck.(triple (int_range 1 60) Helpers.arb_seed Helpers.arb_seed)
    (fun (n, gseed, seed) ->
      let g = Helpers.random_tree ~seed:gseed ~n in
      let v = View.full g in
      Mis.is_mis v (Luby_degree.run v (plan seed)))

let prop_luby_degree_fast_matches_distributed =
  Helpers.qtest ~count:60 "luby_degree: fast engine = distributed engine"
    QCheck.(triple (int_range 1 30) Helpers.arb_seed Helpers.arb_seed)
    (fun (n, gseed, seed) ->
      let g = Helpers.random_graph ~seed:gseed ~n ~p:0.2 in
      let v = View.full g in
      let fast = Luby_degree.run v (plan seed) in
      let outcome = Luby_degree.run_distributed v (plan seed) in
      Array.for_all (fun b -> b) outcome.Mis_sim.Runtime.decided
      && fast = outcome.Mis_sim.Runtime.output)

let test_luby_degree_isolated () =
  let g = Graph.of_edges ~n:3 [] in
  let mis = Luby_degree.run (View.full g) (plan 1) in
  Alcotest.check Helpers.bool_array "all isolated join" [| true; true; true |] mis

let test_luby_degree_phases () =
  let g = Helpers.random_tree ~seed:5 ~n:2000 in
  let _, stats = Luby_degree.run_stats (View.full g) (plan 4) in
  if stats.Luby_degree.phases > 60 then
    Alcotest.failf "too many phases: %d" stats.Luby_degree.phases

(* CntrlFairBipart, run as its message program on a prebuilt engine. *)

let cfb_exec engine ~d_hat ~bit_of =
  Mis_sim.Runtime.Engine.exec ~max_rounds:((2 * d_hat) + 2)
    ~rng_of:Splitmix.of_seed engine
    (Cfb.program ~d_hat ~bit_of)

let cfb_joined v ~d_hat ~bit_of =
  (cfb_exec (Mis_sim.Runtime.Engine.create v) ~d_hat ~bit_of)
    .Mis_sim.Runtime.output

let prop_cfb_valid_when_dhat_large =
  Helpers.qtest "cfb: valid MIS when d_hat >= diameter"
    QCheck.(triple (int_range 1 50) Helpers.arb_seed Helpers.arb_seed)
    (fun (n, gseed, seed) ->
      let g = Helpers.random_tree ~seed:gseed ~n in
      let v = View.full g in
      let d = Traverse.diameter_exact v in
      let p = plan seed in
      Mis.is_mis v
        (cfb_joined v ~d_hat:(max 1 d)
           ~bit_of:(fun u -> Rand_plan.node_bit p ~stage:1 ~node:u)))

let test_cfb_levels_are_bfs_distances () =
  let g = Mis_workload.Trees.path 6 in
  let v = View.full g in
  (* Leader is the max index 5; levels are distances from it, and with
     bit = 0 the even levels join. *)
  Alcotest.check Helpers.bool_array "parity join"
    [| false; true; false; true; false; true |]
    (cfb_joined v ~d_hat:6 ~bit_of:(fun _ -> false))

let test_cfb_bit_flips_selection () =
  let g = Mis_workload.Trees.path 6 in
  let v = View.full g in
  Alcotest.check Helpers.bool_array "odd levels join"
    [| true; false; true; false; true; false |]
    (cfb_joined v ~d_hat:6 ~bit_of:(fun _ -> true))

let test_cfb_isolated_always_joins () =
  let g = Graph.of_edges ~n:4 [ (0, 1) ] in
  let joined = cfb_joined (View.full g) ~d_hat:3 ~bit_of:(fun _ -> true) in
  Alcotest.(check bool) "isolated 2 joins" true joined.(2);
  Alcotest.(check bool) "isolated 3 joins" true joined.(3)

let test_cfb_d_hat_validation () =
  Alcotest.(check bool) "d_hat 0 rejected" true
    (match Cfb.program ~d_hat:0 ~bit_of:(fun _ -> false) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* One engine serves several d_hat values and must match a fresh
   [run_distributed] each time: every node decides, at round 2 d_hat. *)
let prop_cfb_engine_reuse =
  Helpers.qtest ~count:80 "cfb: engine reuse = fresh run (any d_hat)"
    QCheck.(
      quad (int_range 1 25) (int_range 1 8) Helpers.arb_seed Helpers.arb_seed)
    (fun (n, d_hat, gseed, seed) ->
      let g = Helpers.random_graph ~seed:gseed ~n ~p:0.2 in
      let v = View.full g in
      let p = plan seed in
      let engine = Mis_sim.Runtime.Engine.create v in
      List.for_all
        (fun d_hat ->
          let bit_of u = Rand_plan.node_bit p ~stage:2 ~node:u in
          let o = cfb_exec engine ~d_hat ~bit_of in
          let fresh = Cfb.run_distributed v ~plan:p ~stage:2 ~d_hat in
          Array.for_all Fun.id o.Mis_sim.Runtime.decided
          && o.Mis_sim.Runtime.rounds = 2 * d_hat
          && o.Mis_sim.Runtime.output = fresh.Mis_sim.Runtime.output)
        [ d_hat; 1; d_hat + 3 ])

let prop_cfb_fast_matches_distributed_on_cut_views =
  Helpers.qtest ~count:60 "cfb: engines agree on masked views"
    QCheck.(triple (int_range 2 25) Helpers.arb_seed Helpers.arb_seed)
    (fun (n, gseed, seed) ->
      let g = Helpers.random_tree ~seed:gseed ~n in
      let m = Graph.m g in
      let mask_rng = Splitmix.of_seed (gseed * 13) in
      let edges = Array.init m (fun _ -> Splitmix.bool mask_rng) in
      let v = View.restrict ~edges g in
      let p = plan seed in
      let d_hat = 3 in
      let o =
        cfb_exec (Mis_sim.Runtime.Engine.create v) ~d_hat
          ~bit_of:(fun u -> Rand_plan.node_bit p ~stage:3 ~node:u)
      in
      let fresh = Cfb.run_distributed v ~plan:p ~stage:3 ~d_hat in
      Array.for_all Fun.id o.Mis_sim.Runtime.decided
      && o.Mis_sim.Runtime.output = fresh.Mis_sim.Runtime.output)

let test_cfb_underestimate_still_terminates () =
  (* d_hat too small: output exists (not necessarily an MIS). *)
  let g = Mis_workload.Trees.path 30 in
  let o =
    cfb_exec (Mis_sim.Runtime.Engine.create (View.full g)) ~d_hat:2
      ~bit_of:(fun _ -> false)
  in
  Alcotest.(check bool) "all decided" true
    (Array.for_all Fun.id o.Mis_sim.Runtime.decided);
  Alcotest.(check int) "rounds" 4 o.Mis_sim.Runtime.rounds

let test_cfb_rounds () =
  let g = Mis_workload.Trees.path 5 in
  let o =
    cfb_exec (Mis_sim.Runtime.Engine.create (View.full g)) ~d_hat:7
      ~bit_of:(fun _ -> false)
  in
  Alcotest.(check int) "2 d_hat rounds" 14 o.Mis_sim.Runtime.rounds

let suite =
  [ ( "mis.checkers",
      [ Alcotest.test_case "remove violations" `Quick test_remove_violations;
        Alcotest.test_case "uncovered" `Quick test_uncovered;
        Alcotest.test_case "violations list" `Quick test_violations_list;
        Alcotest.test_case "verify raises" `Quick test_verify_raises ] );
    ( "mis.luby",
      [ prop_luby_valid_on_trees;
        prop_luby_valid_on_random_graphs;
        prop_luby_valid_on_views;
        Alcotest.test_case "clique" `Quick test_luby_clique;
        Alcotest.test_case "isolated nodes" `Quick test_luby_isolated;
        Alcotest.test_case "deterministic per seed" `Quick
          test_luby_deterministic_per_seed;
        prop_luby_fast_matches_distributed;
        Alcotest.test_case "star exact probabilities" `Slow
          test_luby_star_exact_probabilities;
        Alcotest.test_case "phases stay logarithmic" `Quick
          test_luby_phases_logarithmic ] );
    ( "mis.luby_degree",
      [ prop_luby_degree_valid;
        prop_luby_degree_valid_on_trees;
        prop_luby_degree_fast_matches_distributed;
        Alcotest.test_case "isolated nodes" `Quick test_luby_degree_isolated;
        Alcotest.test_case "phases bounded" `Quick test_luby_degree_phases ] );
    ( "mis.cntrl_fair_bipart",
      [ prop_cfb_valid_when_dhat_large;
        Alcotest.test_case "levels are BFS distances" `Quick
          test_cfb_levels_are_bfs_distances;
        Alcotest.test_case "bit flips selection" `Quick test_cfb_bit_flips_selection;
        Alcotest.test_case "isolated always joins" `Quick
          test_cfb_isolated_always_joins;
        Alcotest.test_case "d_hat validation" `Quick test_cfb_d_hat_validation;
        prop_cfb_engine_reuse;
        prop_cfb_fast_matches_distributed_on_cut_views;
        Alcotest.test_case "underestimate terminates" `Quick
          test_cfb_underestimate_still_terminates;
        Alcotest.test_case "round accounting" `Quick test_cfb_rounds ] ) ]

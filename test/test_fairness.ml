(* Statistical tests of the paper's fairness guarantees. Trial counts are
   kept moderate and tolerances loose enough that failures indicate real
   bugs, not unlucky draws. *)

module View = Mis_graph.View
module Rooted = Mis_graph.Rooted
module Splitmix = Mis_util.Splitmix
module Empirical = Mis_stats.Empirical
module Montecarlo = Mis_stats.Montecarlo
module Rand_plan = Fairmis.Rand_plan

let cfg trials = { Montecarlo.trials; base_seed = 1000; domains = Some 2 }

let estimate ?(trials = 2000) view run =
  Montecarlo.estimate
    ~check:(fun mis -> Fairmis.Mis.verify ~name:"fairness-test" view mis)
    (cfg trials) view run

(* CntrlFairBipart: Lemma 7 — join probability exactly 1/2 on a tree whose
   diameter fits D-hat. *)
let test_cfb_half () =
  let g = Helpers.random_tree ~seed:21 ~n:30 in
  let view = View.full g in
  let e =
    Montecarlo.estimate_ctx (cfg 4000)
      ~ctx:(fun () -> Mis_sim.Runtime.Engine.create view)
      view
      (fun engine ~seed ->
        let p = Rand_plan.make seed in
        let o =
          Mis_sim.Runtime.Engine.exec ~max_rounds:62 ~rng_of:Splitmix.of_seed
            engine
            (Fairmis.Cntrl_fair_bipart.program ~d_hat:30
               ~bit_of:(fun u -> Rand_plan.node_bit p ~stage:1 ~node:u))
        in
        o.Mis_sim.Runtime.output)
  in
  Alcotest.(check bool) "min close to 1/2" true (Empirical.min_frequency e > 0.46);
  Alcotest.(check bool) "max close to 1/2" true (Empirical.max_frequency e < 0.54)

(* FairRooted: Theorem 3 — every node joins with probability >= 1/4. *)
let test_fair_rooted_quarter () =
  let g = Mis_workload.Trees.complete_kary ~branch:3 ~depth:4 in
  let t = Rooted.of_tree g ~root:0 in
  let view = View.full (Rooted.to_graph t) in
  let e =
    estimate view (fun ~seed -> Fairmis.Fair_rooted.run t (Rand_plan.make seed))
  in
  Alcotest.(check bool) "min >= 1/4 (minus noise)" true
    (Empirical.min_frequency e > 0.25 -. 0.035);
  Alcotest.(check bool) "factor <= 4 (plus noise)" true
    (Empirical.inequality_factor e < 4.6)

(* FairRooted stage 1 joins with probability exactly 1/4. *)
let test_fair_rooted_stage1_exact () =
  let g = Mis_workload.Trees.star 20 in
  let t = Rooted.of_tree g ~root:0 in
  let n = 20 in
  let trials = 4000 in
  let joins = Array.make n 0 in
  for seed = 0 to trials - 1 do
    let _, tr = Fairmis.Fair_rooted.run_traced t (Rand_plan.make seed) in
    Array.iteri (fun u b -> if b then joins.(u) <- joins.(u) + 1) tr.Fairmis.Fair_rooted.stage1
  done;
  Array.iter
    (fun c ->
      let f = float_of_int c /. float_of_int trials in
      if abs_float (f -. 0.25) > 0.035 then
        Alcotest.failf "stage-1 join frequency %f, want 0.25" f)
    joins

(* FairTree: Theorem 8 — join probability >= (1-eps)/4 on trees; the
   empirical inequality factor stays close to the paper's <= 3.25. *)
let test_fair_tree_bounds () =
  let g = Mis_workload.Trees.alternating ~branch:6 ~depth:4 in
  let view = View.full g in
  let e =
    estimate view (fun ~seed -> Fairmis.Fair_tree.run view (Rand_plan.make seed))
  in
  Alcotest.(check bool) "min >= 1/4 (minus noise)" true
    (Empirical.min_frequency e > 0.25 -. 0.04);
  Alcotest.(check bool) "factor in the paper's range" true
    (Empirical.inequality_factor e < 4.0)

(* FairBipart: Theorem 13 — join probability >= 1/8. *)
let test_fair_bipart_eighth () =
  let g = Mis_workload.Bipartite.grid ~width:6 ~height:5 in
  let view = View.full g in
  let e =
    estimate view (fun ~seed -> Fairmis.Fair_bipart.run view (Rand_plan.make seed))
  in
  Alcotest.(check bool) "min >= 1/8 (minus noise)" true
    (Empirical.min_frequency e > 0.125 -. 0.03);
  Alcotest.(check bool) "factor <= 8 (plus noise)" true
    (Empirical.inequality_factor e < 8.5)

(* ColorMIS: Theorem 17 — join probability Omega(1/k). *)
let test_color_mis_k_fair () =
  let g = Mis_workload.Planar.triangular_grid ~width:6 ~height:5 in
  let view = View.full g in
  let e =
    estimate view (fun ~seed ->
        fst (Fairmis.Color_mis.run_planar view (Rand_plan.make seed)))
  in
  (* k <= 8, block join >= 1/4 => min prob >= 1/32. *)
  Alcotest.(check bool) "min >= 1/32 (minus noise)" true
    (Empirical.min_frequency e > (1. /. 32.) -. 0.015)

(* Centralized A': perfectly fair on connected bipartite graphs. *)
let test_centralized_fair_bipartite_exact () =
  let g = Mis_workload.Bipartite.even_cycle 12 in
  let view = View.full g in
  let e =
    estimate view (fun ~seed ->
        match Fairmis.Centralized.fair_bipartite view (Splitmix.of_seed seed) with
        | Some mis -> mis
        | None -> Alcotest.fail "bipartite expected")
  in
  Alcotest.(check bool) "factor close to 1" true
    (Empirical.inequality_factor e < 1.2)

(* Luby on a star: the intro's Theta(n) unfairness example. *)
let test_luby_star_unfair () =
  let n = 64 in
  let g = Mis_workload.Trees.star n in
  let view = View.full g in
  let e =
    estimate ~trials:3000 view (fun ~seed ->
        Fairmis.Luby.run view (Rand_plan.make seed))
  in
  (* Hub joins with probability ~1/n; leaves with probability ~1. *)
  Alcotest.(check bool) "hub rarely joins" true (Empirical.frequency e 0 < 0.1);
  Alcotest.(check bool) "factor is large" true
    (Empirical.inequality_factor e > 10.)

(* FairTree on the same star stays fair. *)
let test_fair_tree_star_fair () =
  let g = Mis_workload.Trees.star 64 in
  let view = View.full g in
  let e =
    estimate view (fun ~seed -> Fairmis.Fair_tree.run view (Rand_plan.make seed))
  in
  Alcotest.(check bool) "factor small" true (Empirical.inequality_factor e < 4.0)

(* Cone graph: Theorem 19 — every algorithm is Omega(n)-unfair. *)
let test_cone_lower_bound () =
  let k = 24 in
  let g = Mis_workload.Special.cone ~k in
  let view = View.full g in
  let algorithms =
    [ ("luby", fun ~seed -> Fairmis.Luby.run view (Rand_plan.make seed));
      ( "greedy",
        fun ~seed ->
          Fairmis.Centralized.greedy_random_permutation view (Splitmix.of_seed seed) ) ]
  in
  List.iter
    (fun (name, run) ->
      let e = estimate ~trials:4000 view run in
      if not (Empirical.inequality_factor e > float_of_int k /. 2.) then
        Alcotest.failf "%s: cone factor %f too small" name
          (Empirical.inequality_factor e))
    algorithms

(* Deterministic Cole–Vishkin under random IDs (Sec. II remark): it has a
   non-trivial, finite inequality factor. *)
let test_cv_random_ids_nontrivial () =
  let g = Mis_workload.Trees.path 9 in
  let t = Rooted.of_tree g ~root:0 in
  let view = View.full (Rooted.to_graph t) in
  let e =
    estimate view (fun ~seed ->
        let ids =
          Mis_util.Ids.random_distinct (Splitmix.of_seed seed) ~n:9
        in
        fst (Fairmis.Cole_vishkin.mis ~ids t))
  in
  let f = Empirical.inequality_factor e in
  Alcotest.(check bool) "finite and non-trivial" true (f >= 1.0 && f < infinity)

(* Figure 4 shape: on an alternating tree, FairTree's join-frequency CDF is
   compact (support within ~[0.2, 0.8]) while Luby's has a low tail. *)
let test_fig4_shape () =
  let g = Mis_workload.Trees.alternating ~branch:10 ~depth:4 in
  let view = View.full g in
  let luby =
    estimate ~trials:3000 view (fun ~seed ->
        Fairmis.Luby.run view (Rand_plan.make seed))
  in
  let fair =
    estimate ~trials:3000 view (fun ~seed ->
        Fairmis.Fair_tree.run view (Rand_plan.make seed))
  in
  Alcotest.(check bool) "Luby has a low tail" true
    (Empirical.min_frequency luby < 0.12);
  Alcotest.(check bool) "FairTree support lower bound" true
    (Empirical.min_frequency fair > 0.2);
  Alcotest.(check bool) "FairTree support upper bound" true
    (Empirical.max_frequency fair < 0.8);
  (* The CDF itself is a valid distribution function ending at 1. *)
  let cdf = Empirical.cdf fair in
  let _, last = cdf.(Array.length cdf - 1) in
  Alcotest.(check (float 1e-9)) "cdf ends at 1" 1.0 last

let suite =
  [ ( "fairness",
      [ Alcotest.test_case "cfb joins with prob 1/2" `Slow test_cfb_half;
        Alcotest.test_case "fair_rooted >= 1/4" `Slow test_fair_rooted_quarter;
        Alcotest.test_case "fair_rooted stage 1 exactly 1/4" `Slow
          test_fair_rooted_stage1_exact;
        Alcotest.test_case "fair_tree bounds" `Slow test_fair_tree_bounds;
        Alcotest.test_case "fair_bipart >= 1/8" `Slow test_fair_bipart_eighth;
        Alcotest.test_case "color_mis k-fair" `Slow test_color_mis_k_fair;
        Alcotest.test_case "centralized A' perfectly fair" `Slow
          test_centralized_fair_bipartite_exact;
        Alcotest.test_case "luby unfair on star" `Slow test_luby_star_unfair;
        Alcotest.test_case "fair_tree fair on star" `Slow test_fair_tree_star_fair;
        Alcotest.test_case "cone lower bound" `Slow test_cone_lower_bound;
        Alcotest.test_case "cole-vishkin with random ids" `Slow
          test_cv_random_ids_nontrivial;
        Alcotest.test_case "figure 4 shape" `Slow test_fig4_shape ] ) ]

(* Tests for the experiment layer: configuration, table rendering, ASCII
   plots, topology specs, and runner adapters. *)

module Config = Mis_exp.Config
module Table = Mis_exp.Table
module Ascii_plot = Mis_exp.Ascii_plot
module Topo_spec = Mis_exp.Topo_spec
module Runners = Mis_exp.Runners
module View = Mis_graph.View
module Graph = Mis_graph.Graph

let env pairs name = List.assoc_opt name pairs

let test_config_defaults () =
  let cfg = Config.load ~getenv:(env []) () in
  Alcotest.(check int) "trials" 2000 cfg.Config.trials;
  Alcotest.(check int) "seed" 1 cfg.Config.seed;
  Alcotest.(check bool) "quick mode" false cfg.Config.full;
  Alcotest.(check bool) "nyc small" true (cfg.Config.nyc = Config.Nyc_small)

let test_config_full_mode () =
  let cfg = Config.load ~getenv:(env [ ("FAIRMIS_FULL", "1") ]) () in
  Alcotest.(check int) "paper trials" 10_000 cfg.Config.trials;
  Alcotest.(check bool) "nyc full" true (cfg.Config.nyc = Config.Nyc_full)

let test_config_overrides () =
  let cfg =
    Config.load
      ~getenv:
        (env
           [ ("FAIRMIS_TRIALS", "123"); ("FAIRMIS_SEED", "9");
             ("FAIRMIS_DOMAINS", "3"); ("FAIRMIS_NYC", "skip") ])
      ()
  in
  Alcotest.(check int) "trials" 123 cfg.Config.trials;
  Alcotest.(check int) "seed" 9 cfg.Config.seed;
  Alcotest.(check bool) "domains" true (cfg.Config.domains = Some 3);
  Alcotest.(check bool) "nyc skip" true (cfg.Config.nyc = Config.Nyc_skip)

let test_config_garbage_ignored () =
  let cfg =
    Config.load ~getenv:(env [ ("FAIRMIS_TRIALS", "banana") ]) ()
  in
  Alcotest.(check int) "fallback" 2000 cfg.Config.trials

let test_config_montecarlo () =
  let cfg = Config.load ~getenv:(env [ ("FAIRMIS_TRIALS", "77") ]) () in
  let mc = Config.montecarlo cfg in
  Alcotest.(check int) "trials forwarded" 77 mc.Mis_stats.Montecarlo.trials

(* Table *)

let test_table_render () =
  let s = Table.render ~header:[ "a"; "bb" ] [ [ "x"; "1" ]; [ "long"; "22" ] ] in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "rows" 4 (List.length lines);
  (* All lines share the same width. *)
  match lines with
  | first :: rest ->
    List.iter
      (fun l -> Alcotest.(check int) "aligned" (String.length first) (String.length l))
      rest
  | [] -> Alcotest.fail "empty render"

let test_table_float_cell () =
  Alcotest.(check string) "finite" "3.14" (Table.float_cell 3.14159);
  Alcotest.(check string) "inf" "inf" (Table.float_cell infinity);
  Alcotest.(check string) "nan" "nan" (Table.float_cell nan)

(* Ascii plot *)

let test_ascii_plot () =
  let series =
    { Ascii_plot.label = 'X'; name = "test";
      points = [| (0.0, 0.1); (0.5, 0.6); (1.0, 1.0) |] }
  in
  let out = Ascii_plot.cdf_panel ~title:"panel" [ series ] in
  Alcotest.(check bool) "has title" true
    (String.length out > 5 && String.sub out 0 5 = "panel");
  Alcotest.(check bool) "uses glyph" true (String.contains out 'X');
  Alcotest.(check bool) "mentions legend" true
    (String.length out > 0
    &&
    let rec contains_sub i =
      i + 4 <= String.length out
      && (String.sub out i 4 = "test" || contains_sub (i + 1))
    in
    contains_sub 0)

(* Topo specs *)

let test_topo_spec_all_names_parse () =
  List.iter
    (fun spec ->
      if spec = "nyc:seed=1" (* too slow for a unit test *)
         || String.length spec >= 5 && String.sub spec 0 5 = "file:" (* needs a file *)
      then ()
      else
        match Topo_spec.parse spec with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "%s failed: %s" spec e)
    Topo_spec.names

let test_topo_spec_params () =
  (match Topo_spec.parse "star:n=33" with
  | Ok g -> Alcotest.(check int) "star n" 33 (Graph.n g)
  | Error e -> Alcotest.fail e);
  (match Topo_spec.parse "grid:w=3,h=4" with
  | Ok g -> Alcotest.(check int) "grid n" 12 (Graph.n g)
  | Error e -> Alcotest.fail e);
  match Topo_spec.parse "cone:k=5" with
  | Ok g -> Alcotest.(check int) "cone n" 11 (Graph.n g)
  | Error e -> Alcotest.fail e

let test_topo_spec_unknown () =
  Alcotest.(check bool) "unknown name" true
    (match Topo_spec.parse "banana:n=2" with Error _ -> true | Ok _ -> false)

let test_topo_spec_bad_params_fall_back () =
  match Topo_spec.parse "star:n=banana" with
  | Ok g -> Alcotest.(check int) "default n" 32 (Graph.n g)
  | Error e -> Alcotest.fail e

let test_topo_spec_invalid_params_reported () =
  Alcotest.(check bool) "invalid params give Error" true
    (match Topo_spec.parse "evencycle:n=7" with Error _ -> true | Ok _ -> false)

(* Runners: every registered runner yields a valid MIS. *)

let test_runners_valid () =
  let g = Mis_workload.Planar.triangular_grid ~width:5 ~height:4 in
  let view = View.full g in
  List.iter
    (fun runner ->
      let mis = runner.Runners.run view ~seed:3 in
      Fairmis.Mis.verify ~name:runner.Runners.name view mis)
    [ Runners.luby; Runners.fair_tree; Runners.fair_bipart;
      Runners.greedy_permutation; Runners.color_mis_planar;
      Runners.color_mis_greedy ]

(* Registry *)

let test_registry () =
  Alcotest.(check int) "19 experiments" 19 (List.length Mis_exp.Registry.all);
  Alcotest.(check bool) "find table1" true (Mis_exp.Registry.find "table1" <> None);
  Alcotest.(check bool) "unknown" true (Mis_exp.Registry.find "nope" = None);
  let ids = Mis_exp.Registry.ids () in
  Alcotest.(check bool) "unique ids" true
    (List.length ids = List.length (List.sort_uniq compare ids))

(* Config: FAIRMIS_DOMAINS must be >= 1; anything else falls back to the
   engine default (None). *)

let test_config_domains_validation () =
  let domains_of v =
    (Config.load ~getenv:(env [ ("FAIRMIS_DOMAINS", v) ]) ()).Config.domains
  in
  Alcotest.(check bool) "valid" true (domains_of "4" = Some 4);
  Alcotest.(check bool) "zero rejected" true (domains_of "0" = None);
  Alcotest.(check bool) "negative rejected" true (domains_of "-3" = None);
  Alcotest.(check bool) "garbage rejected" true (domains_of "many" = None);
  Alcotest.(check bool) "unset" true (domains_of "" = None)

(* Golden experiment output: enabling parallelism must not move a single
   digit. The rows below were produced at [domains = 1] and are pinned;
   the same measurement at 4 domains has to reproduce them exactly. *)

let faults_rows domains =
  let params =
    { Mis_exp.Faults.n = 40; trials = 30; rates = [ 0.; 0.05 ]; repeats = 2;
      seed = 3; domains; csv = None }
  in
  Mis_exp.Faults.measure params
  |> List.map (fun c ->
         Printf.sprintf "%s,%.2f,%d,%d,%.4f,%.4f,%.4f,%.4f,%.4f"
           c.Mis_exp.Faults.algorithm c.Mis_exp.Faults.drop
           c.Mis_exp.Faults.trials c.Mis_exp.Faults.valid
           c.Mis_exp.Faults.mean_rounds c.Mis_exp.Faults.mean_dropped
           c.Mis_exp.Faults.factor c.Mis_exp.Faults.min_freq
           c.Mis_exp.Faults.max_freq)

let faults_golden =
  [ "Luby's,0.00,30,30,11.0667,0.0000,5.0000,0.1667,0.8333";
    "Luby's,0.05,30,13,11.2667,10.2000,5.2000,0.1667,0.8667";
    "FairTree,0.00,30,30,323.0000,0.0000,3.2857,0.2333,0.7667";
    "FairTree,0.05,30,28,323.6667,698.3000,2.7500,0.2667,0.7333" ]

let test_faults_rows_domain_invariant () =
  Alcotest.(check (list string)) "serial matches golden" faults_golden
    (faults_rows (Some 1));
  Alcotest.(check (list string)) "4 domains matches golden" faults_golden
    (faults_rows (Some 4))

let test_estimate_domain_invariant () =
  (* The fig4 pipeline's core: a seeded Monte Carlo estimate over a tree.
     Pinned at domains = 1; parallel runs must agree to the last digit. *)
  let view =
    View.full
      (Mis_workload.Trees.random_prufer (Mis_util.Splitmix.of_seed 8) ~n:40)
  in
  let summary domains =
    let cfg =
      { Mis_stats.Montecarlo.trials = 300; base_seed = 5; domains }
    in
    let e =
      Mis_stats.Montecarlo.estimate cfg view (fun ~seed ->
          Fairmis.Luby.run view (Fairmis.Rand_plan.make seed))
    in
    Printf.sprintf "factor=%.6f min=%.6f max=%.6f"
      (Mis_stats.Empirical.inequality_factor e)
      (Mis_stats.Empirical.min_frequency e)
      (Mis_stats.Empirical.max_frequency e)
  in
  let golden = "factor=7.108108 min=0.123333 max=0.876667" in
  Alcotest.(check string) "serial matches golden" golden (summary (Some 1));
  Alcotest.(check string) "4 domains matches golden" golden
    (summary (Some 4));
  Alcotest.(check string) "8 domains matches golden" golden
    (summary (Some 8))

(* Workloads: Table I rows carry the paper's numbers. *)

let test_workloads_paper_numbers () =
  let cfg = Config.load ~getenv:(env [ ("FAIRMIS_NYC", "skip") ]) () in
  let trees = Mis_exp.Workloads.table1_trees cfg in
  Alcotest.(check int) "five rows without nyc" 5 (List.length trees);
  let binary = List.hd trees in
  Alcotest.(check bool) "paper factor recorded" true
    (binary.Mis_exp.Workloads.paper_luby = Some 3.07)

(* Runners.measure for Luby and FairTree compiles each tree once and runs
   one kernel per domain-chunk. Its join counts must equal a plain
   fast-engine estimate over [run], on Table I trees, at 1 and 4
   domains: this pins the staged compile/instantiate wiring, which the
   per-run kernel = engine properties do not see. *)
(* Join counts of 100 trials (seed 1) per Table I tree and runner, as
   the View-based fast engine produced them before the kernel replaced
   it: MD5 of the comma-separated counts, and their sum. *)
let table1_join_pins =
  [ ("binary-tree", "Luby's", "ac5ae8fee1b2095027253a7283492fdf", 109272);
    ("binary-tree", "FairTree", "c300751f639580d4961fd78fbd4afcd6", 105957);
    ("alternating-B10", "Luby's", "ae2a2189f30be1dd32199442b3c8bc63", 101572);
    ("alternating-B10", "FairTree", "efb1ced45cc682e90ffcbb3cda023f93", 84431);
    ("dartmouth-like", "Luby's", "33525bf4df398f49d1a050515adba985", 12511);
    ("dartmouth-like", "FairTree", "e76b97c336bb9118ea085923077c555a", 11073) ]

let test_measure_matches_pinned_joins () =
  let cfg domains =
    { Config.trials = 100; seed = 1; domains = Some domains;
      nyc = Config.Nyc_skip; full = false }
  in
  let trees = Mis_exp.Workloads.table1_trees (cfg 1) in
  let pin_of e =
    let joins =
      Array.map
        (fun f ->
          int_of_float
            (Float.round (f *. float_of_int (Mis_stats.Empirical.trials e))))
        (Mis_stats.Empirical.frequencies e)
    in
    let csv = String.concat "," (List.map string_of_int (Array.to_list joins)) in
    (Digest.to_hex (Digest.string csv), Array.fold_left ( + ) 0 joins)
  in
  List.iter
    (fun (tree, runner, digest, sum) ->
      let t =
        List.find (fun t -> t.Mis_exp.Workloads.name = tree) trees
      in
      let view = View.full (Lazy.force t.Mis_exp.Workloads.graph) in
      let r =
        List.find
          (fun r -> r.Runners.name = runner)
          [ Runners.luby; Runners.fair_tree ]
      in
      List.iter
        (fun domains ->
          Alcotest.(check (pair string int))
            (Printf.sprintf "%s/%s at %d domains" tree runner domains)
            (digest, sum)
            (pin_of (Runners.measure (cfg domains) view r)))
        [ 1; 4 ])
    table1_join_pins

let suite =
  [ ( "exp.config",
      [ Alcotest.test_case "defaults" `Quick test_config_defaults;
        Alcotest.test_case "full mode" `Quick test_config_full_mode;
        Alcotest.test_case "overrides" `Quick test_config_overrides;
        Alcotest.test_case "garbage ignored" `Quick test_config_garbage_ignored;
        Alcotest.test_case "montecarlo forwarding" `Quick test_config_montecarlo;
        Alcotest.test_case "domains validation" `Quick
          test_config_domains_validation ] );
    ( "exp.golden",
      [ Alcotest.test_case "faults rows domain-invariant" `Slow
          test_faults_rows_domain_invariant;
        Alcotest.test_case "estimate domain-invariant" `Quick
          test_estimate_domain_invariant;
        Alcotest.test_case "measure = pinned joins (Table I trees)"
          `Quick test_measure_matches_pinned_joins ] );
    ( "exp.render",
      [ Alcotest.test_case "table" `Quick test_table_render;
        Alcotest.test_case "float cell" `Quick test_table_float_cell;
        Alcotest.test_case "ascii plot" `Quick test_ascii_plot ] );
    ( "exp.topo_spec",
      [ Alcotest.test_case "all names parse" `Slow test_topo_spec_all_names_parse;
        Alcotest.test_case "params" `Quick test_topo_spec_params;
        Alcotest.test_case "unknown" `Quick test_topo_spec_unknown;
        Alcotest.test_case "bad params fall back" `Quick
          test_topo_spec_bad_params_fall_back;
        Alcotest.test_case "invalid params reported" `Quick
          test_topo_spec_invalid_params_reported ] );
    ( "exp.runners",
      [ Alcotest.test_case "all runners valid" `Quick test_runners_valid ] );
    ( "exp.registry",
      [ Alcotest.test_case "registry" `Quick test_registry;
        Alcotest.test_case "workloads carry paper numbers" `Quick
          test_workloads_paper_numbers ] ) ]

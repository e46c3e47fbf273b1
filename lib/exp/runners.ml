module View = Mis_graph.View
module Rand_plan = Fairmis.Rand_plan

type t = {
  name : string;
  run : Mis_graph.View.t -> seed:int -> bool array;
  prepare : Mis_graph.View.t -> unit -> seed:int -> bool array;
}

let of_run name run = { name; run; prepare = (fun view () -> run view) }

(* A backend runner in the [prepare] shape: compile once per view,
   instantiate once per domain-chunk, then one seeded trial per call. *)
let staged prepare view =
  let instantiate = prepare view in
  fun () ->
    let exec = instantiate () in
    fun ~seed -> (exec (Rand_plan.make seed)).Fairmis.Backend.output

let luby_on backend = staged (Fairmis.Backend.prepare_luby backend)
let fair_tree_on backend =
  staged (fun v -> Fairmis.Backend.prepare_fair_tree backend v)

(* Both halves run on the kernel: [run] compiles per call, [prepare]
   once per view. *)
let luby =
  { name = "Luby's";
    run = (fun view ~seed -> Fairmis.Luby.run view (Rand_plan.make seed));
    prepare = luby_on Fairmis.Backend.Kernel }

let fair_tree =
  { name = "FairTree";
    run = (fun view ~seed -> Fairmis.Fair_tree.run view (Rand_plan.make seed));
    prepare = fair_tree_on Fairmis.Backend.Kernel }

let luby_degree =
  of_run "Luby-A(degree)" (fun view ~seed ->
      Fairmis.Luby_degree.run view (Rand_plan.make seed))

let fair_bipart =
  of_run "FairBipart" (fun view ~seed ->
      Fairmis.Fair_bipart.run view (Rand_plan.make seed))

let greedy_permutation =
  of_run "RandPermGreedy" (fun view ~seed ->
      Fairmis.Centralized.greedy_random_permutation view
        (Mis_util.Splitmix.of_seed seed))

let color_mis_planar =
  of_run "ColorMIS(planar)" (fun view ~seed ->
      fst (Fairmis.Color_mis.run_planar view (Rand_plan.make seed)))

let color_mis_greedy =
  of_run "ColorMIS(greedy)" (fun view ~seed ->
      let plan = Rand_plan.make seed in
      let coloring = Fairmis.Distributed_coloring.randomized_greedy view plan in
      Fairmis.Color_mis.run view
        ~coloring:coloring.Fairmis.Distributed_coloring.colors
        ~k:coloring.Fairmis.Distributed_coloring.palette plan)

type traced = {
  t_name : string;
  t_display : string;
  t_run :
    Mis_graph.View.t ->
    seed:int ->
    tracer:Mis_obs.Trace.sink ->
    Mis_sim.Runtime.outcome;
}

let traced =
  [ { t_name = "luby"; t_display = "Luby's";
      t_run =
        (fun view ~seed ~tracer ->
          Fairmis.Luby.run_distributed ~tracer view (Rand_plan.make seed)) };
    { t_name = "luby-degree"; t_display = "Luby-A(degree)";
      t_run =
        (fun view ~seed ~tracer ->
          Fairmis.Luby_degree.run_distributed ~tracer view
            (Rand_plan.make seed)) };
    { t_name = "fairtree"; t_display = "FairTree";
      t_run =
        (fun view ~seed ~tracer ->
          Fairmis.Fair_tree_distributed.run ~tracer view (Rand_plan.make seed)) };
    { t_name = "fairbipart"; t_display = "FairBipart";
      t_run =
        (fun view ~seed ~tracer ->
          Fairmis.Fair_bipart_distributed.run ~tracer view
            (Rand_plan.make seed)) };
    { t_name = "colormis"; t_display = "ColorMIS(greedy)";
      t_run =
        (fun view ~seed ~tracer ->
          let plan = Rand_plan.make seed in
          let coloring =
            Fairmis.Distributed_coloring.randomized_greedy view plan
          in
          Fairmis.Color_mis_distributed.run ~tracer view
            ~coloring:coloring.Fairmis.Distributed_coloring.colors
            ~k:coloring.Fairmis.Distributed_coloring.palette plan) } ]

let find_traced name =
  List.find_opt (fun t -> t.t_name = name) traced

(* Profiling (FAIRMIS_PROF=1): one span per measured runner; validation
   gets its own child span (recorded on the worker domain that runs it).
   [prepare view] runs once, inside the span; its result once per
   domain-chunk. *)
let measure_prepared ~span ~name cfg view prepare =
  Mis_obs.Prof.gspan span (fun () ->
      Mis_stats.Montecarlo.estimate_ctx
        ~check:(fun mis ->
          Mis_obs.Prof.gspan "validate" (fun () ->
              Fairmis.Mis.verify ~name view mis))
        (Config.montecarlo cfg)
        ~ctx:(prepare view) view
        (fun run ~seed -> run ~seed))

let measure cfg view runner =
  measure_prepared ~span:("measure." ^ runner.name) ~name:runner.name cfg view
    runner.prepare

type backed = {
  b_key : string;
  b_display : string;
  b_backend : Fairmis.Backend.t;
  b_prepare : Mis_graph.View.t -> unit -> seed:int -> bool array;
}

let backed backend key =
  let runner display prepare =
    Some
      { b_key = key; b_display = display; b_backend = backend;
        b_prepare = prepare }
  in
  match key with
  | "luby" -> runner "Luby's" (luby_on backend)
  | "fairtree" -> runner "FairTree" (fair_tree_on backend)
  | _ -> None

let measure_backed cfg view b =
  let span =
    Printf.sprintf "measure.%s[%s]" b.b_display
      (Fairmis.Backend.to_string b.b_backend)
  in
  measure_prepared ~span ~name:b.b_display cfg view b.b_prepare

(* Regression test for the profiler's env flags on first use.

     prof_first_use.exe estimate | measure

   [Mis_obs.Prof] once read FAIRMIS_PROF and FAIRMIS_PROF_SPANS through
   lazies. When the first read happened inside pool tasks, two domains
   could force the same lazy at once and raise
   [CamlinternalLazy.Undefined]. Each mode's first library call is a
   two-domain Monte Carlo estimate:
   - [estimate]: [Montecarlo.estimate_ctx], which consults the profiler
     only inside the tasks (the [parallel.chunk] and kernel spans);
   - [measure]: [Runners.measure], the Table I entry point.
   Both estimates are then checked against a one-domain rerun. *)

module View = Mis_graph.View
module Runners = Mis_exp.Runners

let trials = 64
let view = View.full (Mis_workload.Trees.complete_kary ~branch:2 ~depth:7)

let estimate domains =
  let cfg = { Mis_stats.Montecarlo.trials; base_seed = 1; domains = Some domains } in
  Mis_stats.Montecarlo.estimate_ctx cfg
    ~ctx:(Runners.luby.Runners.prepare view)
    view
    (fun run ~seed -> run ~seed)

let measure domains =
  let cfg =
    { Mis_exp.Config.trials; seed = 1; domains = Some domains;
      nyc = Mis_exp.Config.Nyc_skip; full = false }
  in
  Runners.measure cfg view Runners.fair_tree

let () =
  let run =
    match Sys.argv with
    | [| _; "estimate" |] -> estimate
    | [| _; "measure" |] -> measure
    | _ ->
      prerr_endline "usage: prof_first_use.exe estimate|measure";
      exit 2
  in
  let two = run 2 in
  let one = run 1 in
  Mis_stats.Parallel.shutdown ();
  if Mis_stats.Empirical.frequencies two <> Mis_stats.Empirical.frequencies one
  then begin
    prerr_endline "prof_first_use: 2-domain estimate differs from 1-domain";
    exit 1
  end

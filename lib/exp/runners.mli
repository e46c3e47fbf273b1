(** Uniform "run once with a seed" adapters over the algorithms, plus the
    shared measure-and-validate step used by every experiment. *)

type t = {
  name : string;
  run : Mis_graph.View.t -> seed:int -> bool array;
      (** One run on a view, with nothing compiled ahead. *)
  prepare : Mis_graph.View.t -> unit -> seed:int -> bool array;
      (** The staged form {!measure} uses: [prepare view] does the
          per-view work once (for {!luby} and {!fair_tree}, the
          topology compile); applying the result to [()] builds
          per-domain state once per Monte Carlo chunk; the closure it
          returns runs one trial per seed. Bit-identical to [run]. *)
}

val of_run : string -> (Mis_graph.View.t -> seed:int -> bool array) -> t
(** A runner whose [prepare] just calls [run]. *)

val luby : t
val fair_tree : t
(** Both run on {!Mis_sim.Kernel}: [run] compiles the view per call;
    [prepare] compiles it once and builds one kernel per chunk. Callers
    that repeat a run on one view go through [prepare]. *)

val luby_degree : t
val fair_bipart : t
val greedy_permutation : t
val color_mis_planar : t
val color_mis_greedy : t
(** ColorMIS over the randomized (deg+1) greedy coloring — works on any
    graph (the coloring is recomputed each run, as a distributed execution
    would). *)

(** {1 Traced runners}

    Adapters over the simulator-backed implementations that accept a
    {!Mis_obs.Trace.sink} and return the full {!Mis_sim.Runtime.outcome}
    (the plain {!t} runners only return the membership mask). Used by the
    [fairmis_cli trace] subcommand. *)

type traced = {
  t_name : string;  (** CLI key, matching the [run] subcommand's names. *)
  t_display : string;
  t_run :
    Mis_graph.View.t ->
    seed:int ->
    tracer:Mis_obs.Trace.sink ->
    Mis_sim.Runtime.outcome;
}

val traced : traced list
(** [luby], [luby-degree], [fairtree], [fairbipart] and [colormis] (over
    the randomized greedy coloring). *)

val find_traced : string -> traced option

val measure :
  Config.t -> Mis_graph.View.t -> t -> Mis_stats.Empirical.t
(** Monte Carlo with per-run MIS validation, through the runner's
    [prepare] (one compile per estimate). *)

(** {1 Backend-selected runners}

    Adapters over {!Fairmis.Backend}: the same algorithm run on either
    the message engine or the data-parallel kernel, with the view
    compiled once and the engine or kernel built once per domain-chunk
    instead of per trial. *)

type backed = {
  b_key : string;  (** CLI key: [luby] or [fairtree]. *)
  b_display : string;
  b_backend : Fairmis.Backend.t;
  b_prepare : Mis_graph.View.t -> unit -> seed:int -> bool array;
      (** Staged like {!t.prepare}: [b_prepare view] compiles once and
          may be shared across domains; [b_prepare view ()] is one
          domain's runner, each [~seed] call one trial reusing its
          state. *)
}

val backed : Fairmis.Backend.t -> string -> backed option
(** Runner by CLI key, or [None] for algorithms with no simulator
    program (see {!Fairmis.Backend.supported}). *)

val measure_backed :
  Config.t -> Mis_graph.View.t -> backed -> Mis_stats.Empirical.t
(** {!measure} through a backend-selected runner: the same code path,
    compiling the view once and instantiating it once per domain-chunk
    ({!Mis_stats.Montecarlo.estimate_ctx}). *)

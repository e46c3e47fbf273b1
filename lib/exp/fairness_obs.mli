(** The [fairness-obs] experiment: Table I-style inequality factors
    measured from the {e trace stream} — every run executes on the
    simulator with a {!Mis_obs.Fairness.sink} as its tracer, so the
    join counts come from decide events rather than the membership
    masks the other experiments count. Reports min/max/mean join
    probability and the inequality factor per traced algorithm, plus an
    ASCII per-node heatmap and join-frequency histogram. *)

type params = {
  n : int;  (** Random-tree size. *)
  trials : int;  (** Traced runs per algorithm. *)
  seed : int;
  algorithms : string list;  (** Traced-runner keys
                                 ({!Runners.find_traced}). *)
  domains : int option;
  csv : string option;
}

val default_params : params
(** n=500, trials=1000, FairTree vs Luby. *)

val run_params : params -> (string * Mis_obs.Fairness.summary) list
(** Run, print the report, and return per-algorithm summaries (keyed by
    traced-runner name) for programmatic use.
    @raise Invalid_argument on unknown algorithm names or bad sizes. *)

val run : Config.t -> unit
(** Registry entry point: defaults scaled by the config's trial count
    (at least 1000 runs). *)

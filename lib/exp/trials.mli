(** The shared seeded-trial front end to the {!Mis_stats.Parallel}
    engine: every experiment that averages over seeded runs goes through
    here, so they all inherit the same conventions — trial [i] uses seed
    [spec.seed + i], accumulators merge in chunk order, and the result is
    bit-identical at any domain count (including 1). *)

type spec = {
  trials : int;  (** Number of seeded runs; trial [i] uses [seed + i]. *)
  seed : int;  (** Base seed. *)
  domains : int option;  (** [None] = {!Mis_stats.Parallel.default_domains}. *)
}

val of_config : ?trials:int -> Config.t -> spec
(** Trials / seed / domains from an experiment {!Config.t}; [trials]
    overrides the config's trial count (experiments that probe fewer
    runs, e.g. repeats or structural probes, pass their own). *)

val fold :
  ?chunk:int ->
  ?obs:Mis_obs.Metrics.t ->
  spec ->
  init:(unit -> 'acc) ->
  trial:('acc -> seed:int -> unit) ->
  merge:('acc -> 'acc -> 'acc) ->
  'acc
(** The generic shape: [trial acc ~seed] once per seed, accumulators
    merged deterministically. [chunk] and [obs] are forwarded to
    {!Mis_stats.Parallel.map_reduce}.
    @raise Invalid_argument when [spec.trials < 1]. *)

val fold_ctx :
  ?chunk:int ->
  ?obs:Mis_obs.Metrics.t ->
  spec ->
  ctx:(unit -> 'ctx) ->
  init:(unit -> 'acc) ->
  trial:('ctx -> 'acc -> seed:int -> unit) ->
  merge:('acc -> 'acc -> 'acc) ->
  'acc
(** {!fold} with a per-chunk context: [ctx ()] runs once per chunk on the
    domain that claimed it, and the resulting value is handed to every
    [trial] of that chunk. The intended use is a compiled
    {!Mis_sim.Runtime.Engine} (or other reusable scratch) built once per
    domain-chunk and reused across its trials; because each context lives
    on exactly one domain and is dropped at the merge, sharing-free reuse
    and the bit-identical determinism contract both hold. *)

val fairness_ctx :
  ?chunk:int ->
  ?obs:Mis_obs.Metrics.t ->
  spec ->
  n:int ->
  ctx:(unit -> 'ctx) ->
  ('ctx -> Mis_obs.Fairness.t -> seed:int -> unit) ->
  Mis_obs.Fairness.t
(** {!fairness} with a per-chunk context (see {!fold_ctx}). *)

val counts :
  ?check:(bool array -> unit) ->
  ?obs:Mis_obs.Metrics.t ->
  spec ->
  n:int ->
  (unit -> seed:int -> bool array) ->
  int array
(** Per-node join counts over [spec.trials] runs of a per-chunk
    membership-mask runner ({!Mis_stats.Montecarlo.run_ctx} under the
    spec's seeds): [instantiate ()] runs once per domain-chunk, e.g. a
    {!Runners.t}'s [prepare view]. *)

val fairness_runner :
  ?chunk:int ->
  ?obs:Mis_obs.Metrics.t ->
  spec ->
  n:int ->
  (unit -> seed:int -> bool array) ->
  Mis_obs.Fairness.t
(** Join counts over a per-chunk runner: [instantiate ()] runs once per
    domain-chunk and each trial records the returned membership mask.
    Pass a prepared runner, e.g. [b.b_prepare view] for a
    {!Runners.backed} [b], so the view is compiled once for the whole
    measurement and only the engine or kernel is built per chunk. *)

val fairness :
  ?chunk:int ->
  ?obs:Mis_obs.Metrics.t ->
  spec ->
  n:int ->
  (Mis_obs.Fairness.t -> seed:int -> unit) ->
  Mis_obs.Fairness.t
(** A {!Mis_obs.Fairness} accumulator filled by [trial acc ~seed] — one
    accumulator per chunk, merged at the barrier. Attach a
    [Fairness.sink acc] as the run's tracer (or [Fairness.record] the
    outcome) inside [trial]; sinks stay single-writer because each
    accumulator lives on exactly one domain until the merge. *)

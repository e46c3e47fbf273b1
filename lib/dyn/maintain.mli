(** The incremental maintainer: keeps a live MIS valid across batches of
    topology events by re-running the configured program only on the
    dirty neighborhood, inside a robustness envelope (per-batch timeout,
    bounded retry with an escalating repair radius, full recompute as the
    graceful-degradation floor, and an invariant checker that hard-fails
    fast in strict mode).

    {b Repair scheme.} Applying a batch marks {e seed} nodes whose
    validity may have broken: endpoints of an inserted member–member
    edge, the un-covered endpoint of a deleted member/non-member edge,
    joined nodes, and the former neighbors of a departed or crashed
    member (Ghaffari's locality analysis, arXiv:1506.05093, justifies
    repairing only such neighborhoods). The dirty set is the seeds,
    optionally widened by BFS to the rung's radius, closed under
    "every alive neighbor of a dirty member is dirty" (those neighbors
    may lose their cover). Members outside the dirty set are {e frozen}:
    dirty nodes adjacent to a frozen member are covered and drop out;
    the rest form the {e region}, an induced subview handed to the
    configured algorithm with the {e global} node numbers as ids, so a
    node's coins do not depend on how the region was carved. The default
    {!luby} runs an untraced region on a {!Mis_sim.Kernel} and a traced
    one ([config.critpath]) on the message engine; both commit the same
    repair. The union of the frozen part and the region's MIS is an MIS
    of the whole live graph.

    {b Degradation ladder.} An attempt fails when it exceeds the
    per-batch timeout or leaves region nodes undecided; the maintainer
    then backs off and retries at the next rung ([Radius 1] → [Radius 2]
    → … → [Full_recompute] by default). State is only committed on an
    accepted attempt, so retries always start from the pre-repair MIS. *)

type algorithm = {
  alg_name : string;
  alg_run :
    ?tracer:Mis_obs.Trace.sink ->
    Mis_graph.View.t -> ids:int array -> seed:int -> Mis_sim.Runtime.outcome;
      (** Run one MIS computation on a (sub)view. [ids.(i)] is the global
          node number of view node [i]; implementations must key their
          randomness by id so repairs are reproducible. [tracer] (passed
          when [config.critpath] is on) must receive the run's trace
          stream; implementations that cannot trace may ignore it, at
          the cost of no critical-path stats. *)
}

val luby : algorithm
(** Luby's algorithm, keyed by [ids]. Without a tracer it runs on a
    {!Mis_sim.Kernel} built with [Kernel.create ~ids] (which keeps the
    duplicate-id check); with one it runs {!Fairmis.Luby.program} on the
    message engine ({!Mis_sim.Runtime.run}), the only path that traces.
    Both give the same [output], [decided], [rounds] and per-round
    [rs_decided]. A kernel outcome reports its transport counters
    ([messages], [dropped], [delayed], [in_flight], [max_message_bits]
    and the per-round [rs_messages], [rs_dropped], [rs_delayed]) as 0,
    [crashed] all-[false], and is not folded into
    {!Mis_sim.Runtime.totals}. *)

type rung =
  | Radius of int  (** Repair the dirty set widened to this BFS radius
                       ([Radius 1] = the seeds' own closure). Must be
                       [>= 1]. *)
  | Full_recompute  (** Re-run the program on the whole live graph. *)

type config = {
  algorithm : algorithm;
  ladder : rung list;  (** Attempt order; must be non-empty. *)
  strict : bool;  (** Invariant violations raise instead of self-healing. *)
  check_every : int;
      (** Run {!Mis_graph.Check.is_surviving_mis} on the live view every
          this many batches (1 = every batch; 0 = only via {!check}).
          O(capacity + edges) per check. *)
  timeout : float option;  (** Per-attempt repair budget, seconds. *)
  backoff : int -> float;
      (** Seconds to wait before retry [attempt] (first retry = 2). *)
  sleep : float -> unit;
  clock : unit -> float;  (** Injectable for fault-injected timeout tests. *)
  seed : int;  (** Base seed; attempt coins derive from (seed, batch,
                   attempt). *)
  metrics : Mis_obs.Metrics.t option;
      (** [dyn.*] counters/histograms; [dyn.repair.rounds] observes the
          rounds of every accepted repair, whichever backend ran it. *)
  decisions : Mis_obs.Trace.sink;
      (** Receives one [Decide {round = batch; node; in_mis}] per
          re-decided node of each accepted batch. *)
  critpath : bool;
      (** Trace every repair attempt into a memory sink and run
          {!Mis_obs.Causal.analyze} on the accepted one: histograms
          [dyn.repair.critpath_len] / [dyn.repair.critpath_delivery_steps],
          counter [dyn.repair.wasted_sends], and
          {!report.critpath_len}. Costs one in-memory trace per attempt;
          off by default. *)
}

val default_config : config
(** Luby, ladder [[Radius 1; Radius 2; Full_recompute]], non-strict,
    [check_every = 0], no timeout, zero backoff, wall clock, seed 1, no
    metrics, null decisions sink, critpath off. *)

type t

exception Invariant_violation of string
(** Strict-mode checker failure, or a batch exhausting every rung. *)

val create : ?config:config -> capacity:int -> unit -> t
(** An empty universe: the initial topology bootstraps through
    [Node_join] events like any other churn.
    @raise Invalid_argument on [capacity < 1], an empty or invalid
    ladder, [check_every < 0], or a non-positive timeout. *)

val config : t -> config
val graph : t -> Dyn_graph.t
val batches : t -> int
val mis : t -> bool array
(** Current membership by node slot (a copy; dead slots are [false]). *)

val in_mis : t -> int -> bool

type report = {
  batch : int;  (** 1-based. *)
  events : int;  (** Events received in the batch. *)
  applied : int;
  skipped : int;  (** Inapplicable events (dead endpoint, occupied slot,
                      duplicate edge, …) — skipped and counted. *)
  dirty : int;  (** Dirty-set size at the accepted rung. *)
  region_nodes : int array;
      (** Sorted global numbers of the nodes the program re-decided. *)
  rounds : int;  (** Simulator rounds of the accepted attempt. *)
  attempts : int;  (** 1 = the first rung sufficed. *)
  escalated : bool;  (** [attempts > 1]. *)
  full_recompute : bool;  (** The accepted rung was [Full_recompute]. *)
  repair_seconds : float;  (** Wall clock across all attempts. *)
  flips : int;  (** Membership changes vs before the batch. *)
  live : int;  (** Alive nodes after the batch. *)
  critpath_len : int;
      (** Critical-path length of the accepted attempt; [-1] when
          [config.critpath] is off, the region was empty, or the
          attempt's trace could not be analyzed. Region repairs run
          fault-free, so this equals [rounds] whenever it is [>= 0]. *)
}

val apply_batch : t -> Event.t list -> report
(** Apply the events, repair, and (per [check_every] / [strict]) verify.
    In non-strict mode a checker violation is counted
    ([dyn.invariant_violations]), healed by a forced full recompute, and
    re-verified.
    @raise Invariant_violation as documented on {!exception-Invariant_violation}. *)

val check : t -> (unit, string) result
(** Run the invariant checker now: the maintained membership must be a
    maximal independent set of the surviving subgraph
    ({!Mis_graph.Check.is_surviving_mis} on {!Dyn_graph.to_view}). Never
    raises; [Error] carries a diagnostic. *)

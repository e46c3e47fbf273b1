(** Luby's randomized MIS algorithm [Luby 1986], the baseline of the
    paper's evaluation (Sec. IX) and the maximality fallback of FairTree,
    FairBipart and ColorMIS.

    Variant: the random-priority comparison. In each phase every live node
    draws a uniform value; a node whose (value, id) pair is a strict local
    minimum joins the MIS, after which it and its neighbors leave the
    graph. O(log n) phases with high probability. *)

val run : ?stage:int -> Mis_graph.View.t -> Rand_plan.t -> bool array
(** MIS membership of one run over the active subgraph: {!run_kernel}'s
    output, compiling the view per call (prepare a {!Mis_sim.Kernel} and
    use {!run_kernel_on} to repeat runs). [stage] defaults to
    [Rand_plan.Stage.luby_main]; composite algorithms pass their own
    stage tag so the fallback coins are independent of earlier stages. *)

val fallback :
  stage:int ->
  Mis_graph.View.t ->
  nodes:bool array ->
  Rand_plan.t ->
  bool array * int
(** [fallback ~stage view ~nodes plan] runs Luby on the subgraph of
    [view] induced by [nodes] — the maximality fallback of FairBipart and
    ColorMIS — and returns the membership and the number of 3-round
    phases it took (0 when [nodes] is empty). *)

(** Messages of the distributed program (3 rounds per phase). *)
type message =
  | Value of int  (** My priority this phase. *)
  | In_mis  (** I joined; you are covered. *)
  | Withdraw  (** I halted (joined or covered); remove me. *)

type state

val program : Rand_plan.t -> stage:int -> (state, message) Mis_sim.Program.t
(** Faithful message-passing implementation, the reference semantics:
    with default ids (the node index) the kernel flips exactly the same
    coins, so both backends return identical sets — asserted in the test
    suite. *)

val run_distributed :
  ?stage:int ->
  ?tracer:Mis_obs.Trace.sink ->
  Mis_graph.View.t ->
  Rand_plan.t ->
  Mis_sim.Runtime.outcome
(** Simulator execution. The program emits a [("luby.phase", p)] probe as
    each node enters phase [p] (visible only when tracing). *)

val run_distributed_on :
  ?stage:int ->
  ?tracer:Mis_obs.Trace.sink ->
  (state, message) Mis_sim.Runtime.Engine.t ->
  Rand_plan.t ->
  Mis_sim.Runtime.outcome
(** {!run_distributed} on a prebuilt {!Mis_sim.Runtime.Engine}: identical
    results, amortizing view compilation across seeded trials (build the
    engine once per domain and call this per trial). *)

val run_kernel :
  ?stage:int -> Mis_graph.View.t -> Rand_plan.t -> Mis_sim.Kernel.outcome
(** The same algorithm on the data-parallel {!Mis_sim.Kernel} backend:
    decisions, MIS membership and per-node decision rounds bit-identical
    to {!run_distributed}, with no message allocation. *)

val run_kernel_on :
  ?stage:int -> Mis_sim.Kernel.t -> Rand_plan.t -> Mis_sim.Kernel.outcome
(** {!run_kernel} on a prebuilt kernel (the fast, reusing path). *)

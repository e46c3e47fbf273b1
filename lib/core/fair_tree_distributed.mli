(** FairTree as a genuine message-passing program (paper Sec. V, Fig. 2),
    for execution on the {!Mis_sim} runtime.

    The global round schedule (all nodes know n and γ, so all stage
    boundaries are synchronized, exactly as the paper prescribes —
    "non-participants simply wait that number of rounds"):

    - rounds 0..2γ: stage 1 — CntrlFairBipart over the uncut edges (each
      node derives the shared coin of every incident edge from the
      randomness plan);
    - 1 round: announce membership in I₁;
    - 2γ rounds: stage 2 — CntrlFairBipart on the subgraph induced by I₁;
    - 2 rounds: announce I₂, then announce uncovered status;
    - 2γ rounds: stage 3 — CntrlFairBipart on the uncovered nodes;
    - 2 rounds: announce I₃, then announce the repaired I₄;
    - stage 4: covered nodes terminate; the rest run Luby's algorithm
      (3 rounds per phase) until termination.

    With identity ids, the program flips exactly the same coins as the
    kernel backend ({!run_kernel}, {!Fair_tree.run}), so both produce
    identical MIS outputs for any seed — asserted by the test suite. *)

type state

val program :
  plan:Rand_plan.t -> gamma:int -> (state, Messages.t) Mis_sim.Program.t

val run :
  ?gamma:int ->
  ?tracer:Mis_obs.Trace.sink ->
  Mis_graph.View.t ->
  Rand_plan.t ->
  Mis_sim.Runtime.outcome
(** Execute on the simulator with identity ids and a round budget of
    [6γ + O(log n)] rounds. When tracing, each node emits probes as it
    learns its stage memberships ([fairtree.i1], [fairtree.i2],
    [fairtree.i4]) and when it enters the Luby fallback
    ([fairtree.luby_fallback]). *)

val run_on :
  ?gamma:int ->
  ?tracer:Mis_obs.Trace.sink ->
  (state, Messages.t) Mis_sim.Runtime.Engine.t ->
  Rand_plan.t ->
  Mis_sim.Runtime.outcome
(** {!run} on a prebuilt engine: identical results, view compilation
    amortized across seeded trials. *)

val run_kernel :
  ?gamma:int -> Mis_graph.View.t -> Rand_plan.t -> Mis_sim.Kernel.outcome
(** The same protocol on the data-parallel {!Mis_sim.Kernel} backend
    (stage sweeps instead of messages): decisions, MIS membership and
    per-node decision rounds bit-identical to {!run}. *)

val run_kernel_on :
  ?gamma:int -> Mis_sim.Kernel.t -> Rand_plan.t -> Mis_sim.Kernel.outcome
(** {!run_kernel} on a prebuilt kernel (the fast, reusing path); the
    same function as {!Fair_tree.run_kernel_on}. *)

val message_bits : n:int -> Messages.t -> int
(** Size accounting: every message fits in O(log n) bits. *)

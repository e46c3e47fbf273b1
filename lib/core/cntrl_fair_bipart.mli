(** CntrlFairBipart (paper Sec. V): the perfectly fair MIS subroutine for
    low-diameter bipartite components.

    Given an estimate [d_hat] of the component diameter, each component
    runs a [d_hat]-round flood-max leader election; the leader(s) flip a
    bit and start a breadth-first search carrying (depth, bit); a node at
    level [i] joins the MIS iff [i + bit] is even. A node that is alone
    (degree 0 in the view) always joins.

    When [d_hat >= D(component)] this produces a correct MIS of the
    component where every non-singleton node joins with probability exactly
    1/2 (Lemma 7). When [d_hat] is an underestimate, multiple local leaders
    may arise; the result is then not necessarily independent or maximal —
    exactly as in the paper, where later stages repair it. *)

type message =
  | Max_id of int
  | Bfs of { lead : int; depth : int; bit : bool }

type state

val program :
  d_hat:int -> bit_of:(int -> bool) -> (state, message) Mis_sim.Program.t
(** The message program: [d_hat] rounds of flood-max, then [d_hat] rounds
    of BFS adoption; every node decides in round [2 * d_hat]. [bit_of id]
    is the bit node [id] would flip were it elected leader; pass a
    {!Rand_plan} closure. FairTree embeds three such stages
    ({!Fair_tree_distributed}, and {!Mis_sim.Kernel.fair_tree} as sweeps).
    @raise Invalid_argument when [d_hat < 1]. *)

val run_distributed :
  Mis_graph.View.t ->
  plan:Rand_plan.t ->
  stage:int ->
  d_hat:int ->
  Mis_sim.Runtime.outcome
(** Runs {!program} on the simulator with bits drawn from
    [Rand_plan.node_bit plan ~stage]. *)

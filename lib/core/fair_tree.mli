(** FairTree (paper Sec. V, Fig. 2): the fair MIS algorithm for unrooted
    trees. Four stages:

    + {b Cut}: every edge is cut with probability 1/2 (a shared edge coin);
      CntrlFairBipart with D̂ = γ builds a fair MIS in each resulting
      component.
    + {b Resolve}: CntrlFairBipart runs again on the subgraph induced by
      the current set I, dropping one side of each cross-component
      conflict.
    + {b Maximalize}: CntrlFairBipart runs on the still-uncovered nodes;
      joiners are added.
    + {b Fix}: any residual independence violations are removed and Luby's
      algorithm covers whatever is left — a fallback that triggers only
      when some component's diameter exceeded γ (probability < 1/n for the
      default γ).

    On a tree this guarantees P(join) >= (1-ε)/4 with ε < 1/n
    (Theorem 8), i.e. an inequality factor approaching 4.

    The message program ({!Fair_tree_distributed}) is the reference
    semantics and exposes the per-stage sets as trace probes; this
    module runs the same protocol on {!Mis_sim.Kernel}. *)

val gamma_default : n:int -> int
(** γ = 4·⌈lg n⌉ + 2: large enough that the union-bound argument of
    Lemma 11 gives ε < 1/n. *)

val max_rounds_for : n:int -> gamma:int -> int
(** The round budget of a run, [6γ + 6 + 64·(⌈lg n⌉ + 2)]: the fixed
    stage schedule plus room for the Luby fallback. *)

val kernel_coins : Rand_plan.t -> Mis_sim.Kernel.fair_tree_coins
(** The protocol's cut, leader-bit and fallback draws, keyed exactly as
    the message program draws them. *)

val run_kernel_on :
  ?gamma:int -> Mis_sim.Kernel.t -> Rand_plan.t -> Mis_sim.Kernel.outcome
(** One run on a prebuilt kernel (the fast, reusing path); [gamma]
    defaults to {!gamma_default} of the view's [n].
    @raise Invalid_argument when [gamma < 1]. *)

val run : ?gamma:int -> Mis_graph.View.t -> Rand_plan.t -> bool array
(** MIS membership of one run, compiling the view per call. The view may
    be any graph — correctness (a valid MIS) is unconditional; the
    fairness guarantee holds when the active subgraph is a forest. *)

(** Data-parallel execution backend: the core MIS programs compiled to
    flat frontier sweeps over the {!Csr} index, in the style of omega_h's
    [indset] and the GraphBLAS MIS — no message inboxes, no per-round
    allocation in the steady state.

    {b Equivalence contract.} On a perfect network (no faults), each
    entry point below is bit-identical to executing the corresponding
    message program on {!Runtime.Engine} over the same compiled
    topology: same [output] and [decided] arrays, the same per-node
    decision round, and the same [rounds] total — including the
    [max_rounds] cutoff behavior, where decisions scheduled past the
    cutoff do not happen and [rounds = max_rounds] is reported. The
    QCheck suite in [test/test_kernel.ml] pins this across topologies,
    seeds and engine reuse.

    What the kernel deliberately does {e not} support: fault plans
    (drops, delays, crashes) and event tracing. Those are properties of
    the message transport; experiments that need them run on the message
    backend. *)

type outcome = {
  output : bool array;  (** Per node index: MIS membership. *)
  decided : bool array;
  decide_round : int array;
      (** Round at which the node's decision would be emitted by the
          message engine; [-1] when the node never decided (inactive
          node, or cut off by [max_rounds]). *)
  rounds : int;  (** Last executed round, engine semantics. *)
}

type t
(** A compiled kernel: a {!Csr.t} plus cached sweep scratch. Like an
    engine, a kernel is not thread-safe — build one per domain.

    {b Slot order.} The kernel's slot order is private. A kernel with at
    least [2{^18}] slots renumbers them in BFS order ({!relabel}), so
    that a node's neighbors sit near it in every per-slot array; smaller
    kernels keep the compile's order. Every coin and tie-break is keyed
    by program id and every output is indexed by node, so the order never
    reaches a result. *)

val create : ?ids:int array -> Mis_graph.View.t -> t
(** [create ?ids view] compiles [view] and builds the kernel over it. Only
    the kernel's own topology is retained. *)

val of_csr : Csr.t -> t
(** [of_csr csr] builds a kernel over [csr], relabelled first when it has
    at least [2{^18}] slots. *)

val fresh : t -> t
(** [fresh k] is a kernel over [k]'s topology, shared read-only, with
    its own sweep scratch: one per domain, without redoing the compile or
    the relabel. *)

val relabel : Csr.t -> Csr.t
(** [relabel csr] is [csr] with its slots renumbered in BFS order: from
    slot 0, restarting at the lowest unvisited slot for each further
    component. The view, [n] and [ids] are [csr]'s; [active], [slot] and
    the adjacency are permuted, each row keeping its neighbor order. The
    result is a valid {!Csr.t} for either backend, but not the engine's
    numbering. *)

val view : t -> Mis_graph.View.t

val csr : t -> Csr.t
(** The kernel's topology, in its private slot order: above the cutoff
    this is not the numbering {!Runtime.Engine} uses for the same view. *)

val default_max_rounds : int -> int
(** The engine's default round budget for [n] nodes,
    [64 + 64 * ceil(log2 (max n 2))]. *)

val luby :
  ?max_rounds:int ->
  value_of:(round:int -> id:int -> int) ->
  t ->
  outcome
(** Luby's algorithm as array sweeps. Per phase: draw [value_of] for the
    live frontier, scan each frontier node's live neighbors for a strict
    (value, id) lexicographic minimum, decide winners, mask winners and
    their neighbors out, compact the frontier in place. [value_of] is
    keyed by the program-visible id, matching the message program's
    [Rand_plan.node_value] draw. [max_rounds] defaults to
    {!default_max_rounds}. *)

type fair_tree_coins = {
  cut : u:int -> v:int -> bool;
      (** Edge-cut coin; called with [u < v] (program ids). *)
  bit1 : int -> bool;  (** Stage-1 leader parity bit, by id. *)
  bit2 : int -> bool;
  bit3 : int -> bool;
  luby_value : round:int -> id:int -> int;  (** Fallback Luby values. *)
}

val fair_tree :
  ?max_rounds:int -> gamma:int -> coins:fair_tree_coins -> t -> outcome
(** The FairTree stage pipeline as sweeps: per stage, [gamma] rounds of
    flood-max over the allowed edges, then [gamma] rounds of BFS
    adoption from the flood leaders, then the membership mask updates
    (I1, I2, uncovered, I3, the I4 independence repair) — followed by
    the Luby fallback on whatever remains undecided after round
    [6*gamma + 5]. The coin closures carry the {!Rand_plan} draws so
    this module stays independent of the core library. [max_rounds]
    defaults to the message runner's
    [6*gamma + 6 + 64*(ceil(log2 (max n 2)) + 2)].

    @raise Invalid_argument when [gamma < 1]. *)

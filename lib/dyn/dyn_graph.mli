(** The live topology of the dynamic-MIS service: a mutable undirected
    graph over a fixed universe of node slots [0 .. capacity-1], each
    slot absent, alive, or crashed.

    The static {!Mis_graph.Graph.t} is an immutable CSR — right for the
    batch simulator, wrong for a structure mutated by every churn event.
    This module keeps each slot's neighbours in a flat int vector and
    exports a {!to_view} snapshot (a real CSR under a node mask) whenever
    a component needs the static API: the invariant checker
    ({!Mis_graph.Check.is_surviving_mis} on the live view) and the
    full-recompute rung of the degradation ladder.

    Costs, with [d(u)] the number of links at [u] (crashed ends
    included): {!insert_edge} and {!mem_edge} scan the shorter of the
    two lists, O(min(d(u), d(v))) plus an amortized O(1) push on each
    end; {!delete_edge} is O(d(u) + d(v)), a scan plus a swap-remove on
    each end; {!leave} is O(sum of d(v) over its neighbours); neighbour
    iteration is O(d(u)). A vector doubles when full and halves once it
    is at most a quarter full, and {!leave} frees it, so memory tracks
    the current links rather than the densest moment of the stream.

    Semantics of the three slot states:
    - {b absent}: never joined, or left cleanly; the slot is reusable;
    - {b alive}: participates in the MIS;
    - {b crashed}: crash-stop — dead forever, links kept (they become
      unusable because the endpoint is masked), slot never reused. *)

type t

type state = Absent | Alive | Crashed

val create : capacity:int -> t
(** All slots absent. @raise Invalid_argument if [capacity < 1]. *)

val capacity : t -> int
val state : t -> int -> state
val alive : t -> int -> bool
val alive_count : t -> int
val edge_count : t -> int
(** Undirected edges with both endpoints alive. *)

(** {1 Mutation} — all raise [Invalid_argument] on out-of-range nodes;
    semantic misuses (joining an occupied slot, linking a dead node)
    return [false] and change nothing, so the maintainer can skip and
    count them without exceptions. *)

val join : t -> int -> bool
(** Make an absent slot alive (without edges). [false] if alive/crashed. *)

val leave : t -> int -> bool
(** Remove an alive node and all its edges. [false] unless alive. *)

val crash : t -> int -> bool
(** Mark an alive node crashed, keeping its edges. [false] unless alive. *)

val insert_edge : t -> int -> int -> bool
(** [false] on self-loop, a dead endpoint, or an existing edge. *)

val delete_edge : t -> int -> int -> bool
(** [false] unless the edge exists between two alive nodes. *)

val mem_edge : t -> int -> int -> bool

(** {1 Reading} *)

val iter_adj_alive : t -> int -> (int -> unit) -> unit
(** Alive neighbors of [u], in unspecified order (callers that need
    determinism sort; see {!adj_alive_sorted}). *)

val adj_alive_sorted : t -> int -> int array
val degree_alive : t -> int -> int
val alive_nodes : t -> int array
(** Sorted. *)

val to_view : t -> Mis_graph.View.t * bool array
(** Snapshot: a CSR over all non-absent slots (alive {e and} crashed
    active in the view, so edges at crashed endpoints are represented)
    plus the crashed mask — exactly the arguments
    {!Mis_graph.Check.is_surviving_mis} expects. O(capacity + edges). *)

val live_view : t -> Mis_graph.View.t
(** Snapshot of the alive subgraph only (crashed and absent masked out):
    the graph the maintained MIS must be maximal on. *)

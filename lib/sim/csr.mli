(** Compiled topology shared by the execution backends.

    A [Csr.t] is the view-dependent part of a run that both the
    message-passing engine ({!Runtime.Engine}) and the data-parallel
    sweeps ({!Kernel}) execute over: the active-slot maps and the CSR
    neighbor index, in the view's adjacency iteration order. Compiling
    once and handing the same value to either backend guarantees they
    agree on slot numbering and edge order — the starting point of the
    bit-identity contract between them. *)

type t = {
  c_view : Mis_graph.View.t;
  n : int;  (** Nodes in the underlying graph (including inactive). *)
  ids : int array;  (** Node index -> program-visible identifier. *)
  active : int array;  (** Slot -> node index. *)
  slot : int array;  (** Node index -> slot, or [-1] when inactive. *)
  adj_off : int array;
      (** Slot [s]'s neighbors occupy entries [adj_off.(s) ..
          adj_off.(s+1) - 1] of [adj_slot]. *)
  adj_slot : int array;
      (** Neighbor slots in view iteration order (the neighbor's node
          index is [active.(adj_slot.(k))]). *)
}

val compile : ?ids:int array -> Mis_graph.View.t -> t
(** Compile [view] and the optional index-to-id map (default the
    identity). Supplied ids are checked once, here.

    @raise Invalid_argument with the messages documented under
    {!Runtime.run} when [ids] has the wrong length, assigns a negative id
    to an active node (the message names the node and the id), or
    assigns duplicate ids to active nodes. *)

val view : t -> Mis_graph.View.t
val nslots : t -> int
val deg : t -> int -> int
(** [deg t s] is the number of neighbors of slot [s]. *)

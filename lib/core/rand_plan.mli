(** The randomness plan: every coin any algorithm flips is addressed by a
    (seed, stage, entity, ...) key and derived through {!Mis_util.Splitmix}.

    This gives three properties the whole repository relies on:
    - runs are reproducible from a single integer seed;
    - the message program of an algorithm and its fast path (the
      {!Mis_sim.Kernel} sweeps for Luby and FairTree, an array engine for
      the others) flip {e identical} coins, so their outputs can be
      compared for exact equality in tests;
    - stages of a composite algorithm (e.g. FairTree's four stages) use
      independent randomness, as the paper's analysis assumes. *)

type t

val make : int -> t
val seed : t -> int

(** Stage tags. Each (algorithm, stage) pair gets a distinct namespace. *)
module Stage : sig
  val fair_rooted_tag : int
  val fair_rooted_virtual : int
  val fair_tree_cut : int
  val fair_tree_s1 : int
  val fair_tree_s2 : int
  val fair_tree_s3 : int
  val fair_tree_luby : int
  val fair_bipart_radius : int
  val fair_bipart_bit : int
  val fair_bipart_luby : int
  val color_mis_radius : int
  val color_mis_choice : int
  val color_mis_luby : int
  val coloring_greedy : int
  val coloring_layered : int
  val luby_main : int
  val centralized : int
end

val node_bit : t -> stage:int -> node:int -> bool
(** One fair coin per (stage, node). *)

val edge_bit : t -> stage:int -> u:int -> v:int -> bool
(** One fair coin per (stage, edge); symmetric in [u]/[v] — this is the
    paper's "cooperate with each neighbor" shared edge coin. *)

val node_value : t -> stage:int -> round:int -> node:int -> int
(** A fresh uniform 62-bit value per (stage, round, node): Luby's
    per-round random priorities. *)

(** {2 Hoisted drawers}

    [node_bits t ~stage], [edge_bits t ~stage] and [node_values t ~stage]
    mix the constant [\[stage; tag\]] part of the key once and return a
    drawer over the rest, keyed by program id like the
    {!Mis_sim.Kernel} coin closures. A drawer returns {e the same bits}
    as the keyed draw above for every argument — [node_bits t ~stage id
    = node_bit t ~stage ~node:id], [edge_bits t ~stage ~u ~v = edge_bit
    t ~stage ~u ~v] (so it is symmetric in [u]/[v] too) and [node_values
    t ~stage ~round ~id = node_value t ~stage ~round ~node:id] — at two
    fewer mixes per draw and no allocation per draw. Building a drawer
    allocates its closure: build one per stage and run, not per draw. *)

val node_bits : t -> stage:int -> int -> bool
val edge_bits : t -> stage:int -> u:int -> v:int -> bool
val node_values : t -> stage:int -> round:int -> id:int -> int

val node_int : t -> stage:int -> node:int -> bound:int -> int
(** Uniform in [\[0, bound)] per (stage, node). *)

val node_radius : t -> stage:int -> node:int -> p:float -> gamma:int -> int
(** The Linial–Saks truncated-geometric broadcast radius per node. *)

val node_stream : t -> stage:int -> node:int -> Mis_util.Splitmix.t
(** A whole private stream, for components that draw an unbounded number
    of coins. *)

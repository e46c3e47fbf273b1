(** Pluggable execution backends for the simulator-backed algorithms.

    [Message] runs the faithful message-passing program on
    {!Mis_sim.Runtime.Engine}; [Kernel] runs the same algorithm as
    data-parallel frontier sweeps on {!Mis_sim.Kernel}. On a perfect
    network the two are bit-identical in decisions, membership and
    rounds (the QCheck equivalence suite pins this); the message backend
    remains the only one supporting fault plans and event tracing. *)

type t = Message | Kernel

val all : t list
val to_string : t -> string
val of_string : string -> t option

(** The backend-independent slice of a run's result. *)
type outcome = {
  output : bool array;
  decided : bool array;
  rounds : int;
}

val of_engine : Mis_sim.Runtime.outcome -> outcome
val of_kernel : Mis_sim.Kernel.outcome -> outcome

val prepare_luby : t -> Mis_graph.View.t -> unit -> Rand_plan.t -> outcome
(** [prepare_luby b view] compiles [view]'s topology once. Each
    application of the result to [()] builds backend [b]'s per-domain
    state (engine or kernel) over that shared compile, and the closure it
    returns executes one seeded trial per call, reusing that state. The
    prepared value is safe to share across domains; each instantiated
    closure is not: build one per domain. *)

val prepare_fair_tree :
  ?gamma:int -> t -> Mis_graph.View.t -> unit -> Rand_plan.t -> outcome

val exec_of_name :
  ?gamma:int -> t -> Mis_graph.View.t -> string -> (Rand_plan.t -> outcome) option
(** Compiled and instantiated runner by CLI key ([luby] / [fairtree]),
    for a single domain; [None] for algorithms with no simulator
    program. *)

val supported : string list
(** The CLI keys accepted by {!exec_of_name}. *)

(** Deterministic splittable pseudo-random numbers (SplitMix64).

    Every source of randomness in this repository flows through this module
    so that a single integer seed reproduces a whole experiment, and so that
    the message program and the fast path of each algorithm can draw
    identical coins from identical keyed streams. *)

type t
(** A mutable pseudo-random stream. *)

val of_seed : int -> t
(** [of_seed s] creates a stream from an integer seed. *)

val of_key : int64 -> t
(** [of_key k] creates a stream whose state is exactly [k] (already mixed). *)

val copy : t -> t
(** [copy t] is an independent stream starting at [t]'s current state. *)

val next_int64 : t -> int64
(** Next raw 64-bit output of the generator. *)

val bits62 : t -> int
(** Next 62 uniformly random non-negative bits as an OCaml [int]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive.
    Uses rejection sampling, so there is no modulo bias. *)

val float : t -> float
(** Uniform in [\[0, 1)], with 53 bits of precision. *)

val bool : t -> bool
(** A fair coin. *)

val geometric_truncated : t -> p:float -> gamma:int -> int
(** [geometric_truncated t ~p ~gamma] samples from the Linial–Saks radius
    distribution: [P(k) = p^k (1-p)] for [0 <= k < gamma] and
    [P(gamma) = p^gamma]. *)

val mix64 : int64 -> int64
(** The SplitMix64 finalizer, exposed for keyed derivation. *)

val derive : int64 -> int list -> int64
(** [derive seed keys] deterministically hashes [seed] together with the
    integer key path [keys] into a fresh stream state. Distinct key paths
    yield statistically independent streams. *)

val stream : int64 -> int list -> t
(** [stream seed keys] is [of_key (derive seed keys)]. *)

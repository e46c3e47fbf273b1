(** Hierarchical span profiler: wall-clock, allocation
    ([Gc.allocated_bytes]) and minor/major collection counts per span,
    accumulated into a tree keyed by span nesting.

    Two layers:
    - explicit profilers ({!create} / {!span} / {!start} / {!stop}) for
      harness code and tests;
    - an env-gated {e global} profiler ({!gspan} / {!gstart} / {!gstop}),
      enabled by [FAIRMIS_PROF=1], that the runtime and the experiment
      runners use. When disabled every [g*] entry point is a single
      branch around the thunk — the unprofiled path stays bit-identical
      and effectively free. The global profiler is {e domain-local}
      ([Domain.DLS]), so spans opened inside parallel map-reduce workers
      never race; every domain's profiler is also registered globally, so
      {!print_report} / {!global_tree} merge the trees of all domains
      that ever profiled (call them only after workers have been joined,
      as [Parallel.map_reduce] does).

    Counters are inclusive: a parent span's seconds / allocations contain
    its children's. Repeated spans with the same name under the same
    parent accumulate into one node. *)

type t

val create : ?record_spans:bool -> unit -> t
(** [record_spans] (default false) additionally retains one raw
    {!span_record} per closed span, for timeline export. *)

val reset : t -> unit

val span : t -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span (closed on exceptions too). *)

type handle

val start : t -> string -> handle
val stop : t -> handle -> unit
(** Explicit bracket for code where a closure is awkward. [stop] restores
    the stack as of the matching [start], so spans leaked by an exception
    are discarded rather than corrupting the tree. *)

(** {1 Snapshots} *)

type snapshot = {
  s_name : string;
  s_calls : int;
  s_seconds : float;
  s_allocated_bytes : float;
  s_minor : int;
  s_major : int;
  s_children : snapshot list;  (** In first-seen order. *)
}

val tree : t -> snapshot list
(** Top-level spans in first-seen order. *)

val report : t -> string
(** Aligned text table of the tree, children indented. *)

val render : snapshot list -> string
(** The same table for an arbitrary forest. *)

val merge_forest : snapshot list -> snapshot list
(** Merge same-named snapshots (recursively) into one forest, preserving
    first-appearance order; counters add up. *)

val to_metrics : t -> Metrics.t -> unit
(** Fold the tree into a registry: per span path [p], a timer [prof.p]
    and counters [prof.p.allocated_bytes] /
    [prof.p.minor_collections] / [prof.p.major_collections]. *)

(** {1 Raw span records}

    When recording is on, every closed span also leaves a flat record
    carrying its wall-clock begin/end and the id of the domain that ran
    it — the raw material for the Perfetto execution timeline
    ({!Causal.execution_timeline}). Aggregate counters above are
    unaffected. Retention is capped (2^20 records per profiler); spans
    past the cap still accumulate into the tree but are counted in
    {!spans_dropped} instead of retained. *)

type span_record = {
  sr_name : string;  (** Slash-joined path from the root, e.g. ["run/rounds"]. *)
  sr_begin : float;  (** [Unix.gettimeofday] at [start]. *)
  sr_end : float;    (** [Unix.gettimeofday] at [stop]. *)
  sr_domain : int;   (** [(Domain.self () :> int)] of the recording domain. *)
  sr_depth : int;    (** Nesting depth; 0 = top-level. *)
}

val recording : t -> bool
val set_recording : t -> bool -> unit

val spans : t -> span_record list
(** Retained records, oldest first. *)

val spans_dropped : t -> int

(** {1 The global profiler} *)

val enabled : unit -> bool
(** [FAIRMIS_PROF=1] or [FAIRMIS_PROF_SPANS=1], each read once when the
    module initialises, so any domain may call this at any time. *)

val spans_enabled : unit -> bool
(** [FAIRMIS_PROF_SPANS=1] (read at module initialisation). When set, every domain's global
    profiler records raw {!span_record}s, and {!enabled} is forced on so
    the spans actually open. *)

val global : unit -> t
(** This domain's profiler (meaningful whether or not enabled). *)

val global_tree : unit -> snapshot list
(** The merged forest of every domain's global profiler. *)

val global_spans : unit -> span_record list
(** Raw records of every domain's global profiler, sorted by begin time.
    Empty unless {!spans_enabled} (or recording was switched on by
    hand). Call after workers have been joined, like {!global_tree}. *)

val global_spans_reset : unit -> unit
(** Drop retained records on every registered profiler (aggregate trees
    are kept) — lets a long-lived process export per-batch timelines. *)

val gspan : string -> (unit -> 'a) -> 'a
(** Span on the global profiler when {!enabled}, else just the thunk. *)

type ghandle

val gstart : string -> ghandle
val gstop : ghandle -> unit

val print_report : out_channel -> unit
(** When enabled and the tree is non-empty, print the report (binaries
    call this on exit). *)

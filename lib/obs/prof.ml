type node = {
  name : string;
  mutable calls : int;
  mutable seconds : float;
  mutable allocated_bytes : float;
  mutable minor : int;
  mutable major : int;
  children : (string, node) Hashtbl.t;
  mutable order : string list;  (* reverse insertion order *)
}

let make_node name =
  { name; calls = 0; seconds = 0.; allocated_bytes = 0.; minor = 0; major = 0;
    children = Hashtbl.create 4; order = [] }

(* Raw span records (for timeline export): one per [stop] when recording
   is on, newest first. Bounded so a long profiled run cannot grow
   without limit — once the cap is hit further spans only feed the
   aggregate tree and [sr_dropped] counts what the timeline lost. *)
type span_record = {
  sr_name : string;  (* slash-joined path from the root, e.g. "run/rounds" *)
  sr_begin : float;
  sr_end : float;
  sr_domain : int;
  sr_depth : int;  (* 0 = top-level *)
}

let span_cap = 1 lsl 20

type t = {
  root : node;
  mutable stack : node list;
  mutable record_spans : bool;
  mutable spans : span_record list;  (* newest first *)
  mutable span_count : int;
  mutable spans_dropped : int;
}

let create ?(record_spans = false) () =
  { root = make_node ""; stack = []; record_spans; spans = [];
    span_count = 0; spans_dropped = 0 }

let reset t =
  Hashtbl.reset t.root.children;
  t.root.order <- [];
  t.stack <- [];
  t.spans <- [];
  t.span_count <- 0;
  t.spans_dropped <- 0

let recording t = t.record_spans
let set_recording t on = t.record_spans <- on
let spans t = List.rev t.spans
let spans_dropped t = t.spans_dropped

type handle = {
  h_node : node;
  h_prev : node list;
  h_t0 : float;
  h_a0 : float;
  h_minor0 : int;
  h_major0 : int;
}

let start t name =
  let parent = match t.stack with [] -> t.root | n :: _ -> n in
  let child =
    match Hashtbl.find_opt parent.children name with
    | Some c -> c
    | None ->
      let c = make_node name in
      Hashtbl.add parent.children name c;
      parent.order <- name :: parent.order;
      c
  in
  let prev = t.stack in
  t.stack <- child :: prev;
  let st = Gc.quick_stat () in
  { h_node = child; h_prev = prev; h_t0 = Unix.gettimeofday ();
    h_a0 = Gc.allocated_bytes (); h_minor0 = st.Gc.minor_collections;
    h_major0 = st.Gc.major_collections }

let stop t h =
  let st = Gc.quick_stat () in
  let n = h.h_node in
  let now = Unix.gettimeofday () in
  n.calls <- n.calls + 1;
  n.seconds <- n.seconds +. (now -. h.h_t0);
  n.allocated_bytes <- n.allocated_bytes +. (Gc.allocated_bytes () -. h.h_a0);
  n.minor <- n.minor + (st.Gc.minor_collections - h.h_minor0);
  n.major <- n.major + (st.Gc.major_collections - h.h_major0);
  if t.record_spans then begin
    if t.span_count < span_cap then begin
      let path =
        String.concat "/"
          (List.rev_map (fun nd -> nd.name) h.h_prev @ [ n.name ])
      in
      t.spans <-
        { sr_name = path; sr_begin = h.h_t0; sr_end = now;
          sr_domain = (Domain.self () :> int);
          sr_depth = List.length h.h_prev }
        :: t.spans;
      t.span_count <- t.span_count + 1
    end
    else t.spans_dropped <- t.spans_dropped + 1
  end;
  (* Restoring the pre-start stack also discards any frames an exception
     skipped over, so one leaked span cannot corrupt the tree. *)
  t.stack <- h.h_prev

let span t name f =
  let h = start t name in
  Fun.protect ~finally:(fun () -> stop t h) f

(* --- snapshots and rendering -------------------------------------------- *)

type snapshot = {
  s_name : string;
  s_calls : int;
  s_seconds : float;
  s_allocated_bytes : float;
  s_minor : int;
  s_major : int;
  s_children : snapshot list;
}

let rec snap node =
  { s_name = node.name; s_calls = node.calls; s_seconds = node.seconds;
    s_allocated_bytes = node.allocated_bytes; s_minor = node.minor;
    s_major = node.major;
    s_children =
      List.rev_map (fun n -> snap (Hashtbl.find node.children n)) node.order }

let tree t = (snap t.root).s_children

let mb bytes = bytes /. 1048576.

let render forest =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%-40s %9s %10s %10s %8s %6s\n" "span" "calls" "seconds"
       "alloc MB" "minor" "major");
  let rec walk depth s =
    Buffer.add_string buf
      (Printf.sprintf "%-40s %9d %10.4f %10.2f %8d %6d\n"
         (String.make (2 * depth) ' ' ^ s.s_name)
         s.s_calls s.s_seconds
         (mb s.s_allocated_bytes)
         s.s_minor s.s_major);
    List.iter (walk (depth + 1)) s.s_children
  in
  List.iter (walk 0) forest;
  Buffer.contents buf

let report t = render (tree t)

(* Merge same-named snapshots (recursively) into one forest, preserving
   first-appearance order — used to combine per-domain profilers. *)
let rec merge_forest snaps =
  let order = ref [] in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun s ->
      if not (Hashtbl.mem seen s.s_name) then begin
        Hashtbl.add seen s.s_name ();
        order := s.s_name :: !order
      end)
    snaps;
  List.rev_map
    (fun name ->
      let group = List.filter (fun s -> s.s_name = name) snaps in
      let sum f = List.fold_left (fun a s -> a +. f s) 0. group in
      let sumi f = List.fold_left (fun a s -> a + f s) 0 group in
      { s_name = name;
        s_calls = sumi (fun s -> s.s_calls);
        s_seconds = sum (fun s -> s.s_seconds);
        s_allocated_bytes = sum (fun s -> s.s_allocated_bytes);
        s_minor = sumi (fun s -> s.s_minor);
        s_major = sumi (fun s -> s.s_major);
        s_children = merge_forest (List.concat_map (fun s -> s.s_children) group)
      })
    !order

let to_metrics t reg =
  let rec walk prefix s =
    let path = if prefix = "" then s.s_name else prefix ^ "." ^ s.s_name in
    Metrics.timer_add
      (Metrics.timer reg ("prof." ^ path))
      ~seconds:s.s_seconds ~calls:s.s_calls;
    Metrics.incr
      ~by:(int_of_float s.s_allocated_bytes)
      (Metrics.counter reg ("prof." ^ path ^ ".allocated_bytes"));
    Metrics.incr ~by:s.s_minor
      (Metrics.counter reg ("prof." ^ path ^ ".minor_collections"));
    Metrics.incr ~by:s.s_major
      (Metrics.counter reg ("prof." ^ path ^ ".major_collections"));
    List.iter (walk path) s.s_children
  in
  List.iter (walk "") (tree t)

(* --- the env-gated global profiler -------------------------------------- *)

let env_flag name =
  match Sys.getenv_opt name with
  | Some "1" | Some "true" -> true
  | Some _ | None -> false

(* Read once, at module initialisation, on the main domain: plain
   immutable bools are safe to read from any domain. (Lazies were not:
   two pool workers forcing one at once raise [CamlinternalLazy.Undefined].) *)
let spans_enabled_v = env_flag "FAIRMIS_PROF_SPANS"
let spans_enabled () = spans_enabled_v

(* FAIRMIS_PROF_SPANS implies profiling: recording a timeline without
   opening spans would record nothing. *)
let enabled_v = env_flag "FAIRMIS_PROF" || spans_enabled_v
let enabled () = enabled_v

(* Domain-local, so spans opened inside parallel map-reduce tasks never
   race. Every domain's profiler is also registered globally: worker
   domains terminate when a map-reduce returns, but their trees stay
   reachable here, and [print_report] / [global_tree] merge across all
   of them. *)
let reg_mutex = Mutex.create ()
let reg_all : t list ref = ref []

let dls_key =
  Domain.DLS.new_key (fun () ->
      let t = create ~record_spans:(spans_enabled ()) () in
      Mutex.lock reg_mutex;
      reg_all := t :: !reg_all;
      Mutex.unlock reg_mutex;
      t)

let global () = Domain.DLS.get dls_key

let registered () =
  ignore (global ());
  Mutex.lock reg_mutex;
  let all = !reg_all in
  Mutex.unlock reg_mutex;
  List.rev all

let global_tree () = merge_forest (List.concat_map tree (registered ()))

let global_spans () =
  let all = List.concat_map spans (registered ()) in
  List.sort (fun a b -> compare a.sr_begin b.sr_begin) all

let global_spans_reset () =
  List.iter
    (fun t ->
      t.spans <- [];
      t.span_count <- 0;
      t.spans_dropped <- 0)
    (registered ())

let gspan name f = if enabled () then span (global ()) name f else f ()

type ghandle = handle option

let gstart name = if enabled () then Some (start (global ()) name) else None
let gstop h = match h with None -> () | Some h -> stop (global ()) h

let print_report oc =
  if enabled () then begin
    let forest = global_tree () in
    if forest <> [] then begin
      output_string oc "== profile (FAIRMIS_PROF=1)\n";
      output_string oc (render forest)
    end
  end

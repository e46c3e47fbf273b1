module Graph = Mis_graph.Graph
module View = Mis_graph.View
module Check = Mis_graph.Check
module Runtime = Mis_sim.Runtime
module Kernel = Mis_sim.Kernel
module Trace = Mis_obs.Trace
module Metrics = Mis_obs.Metrics
module Prof = Mis_obs.Prof
module Splitmix = Mis_util.Splitmix
module Rand_plan = Fairmis.Rand_plan

let spf = Printf.sprintf

type algorithm = {
  alg_name : string;
  alg_run :
    ?tracer:Mis_obs.Trace.sink ->
    Mis_graph.View.t -> ids:int array -> seed:int -> Mis_sim.Runtime.outcome;
}

(* A kernel outcome in the engine's outcome type: the per-round
   decision counts come from [decide_round], so [round_stats] keeps its
   length ([rounds + 1]) and its sums; the transport counters are 0,
   since no message is sent. *)
let outcome_of_kernel (k : Kernel.outcome) =
  let n = Array.length k.Kernel.output in
  let decided_in = Array.make (k.Kernel.rounds + 1) 0 in
  Array.iter
    (fun r -> if r >= 0 then decided_in.(r) <- decided_in.(r) + 1)
    k.Kernel.decide_round;
  { Runtime.output = k.Kernel.output;
    decided = k.Kernel.decided;
    rounds = k.Kernel.rounds;
    messages = 0;
    max_message_bits = 0;
    dropped = 0;
    delayed = 0;
    in_flight = 0;
    crashed = Array.make n false;
    round_stats =
      Array.map
        (fun d ->
          { Runtime.rs_messages = 0; rs_dropped = 0; rs_delayed = 0;
            rs_decided = d; rs_crashed = 0 })
        decided_in }

(* Only the message engine traces, so a traced run takes it; every other
   run goes to the kernel, which decides bit-identically. *)
let luby =
  { alg_name = "luby";
    alg_run =
      (fun ?tracer view ~ids ~seed ->
        let plan = Rand_plan.make seed in
        let stage = Rand_plan.Stage.luby_main in
        match tracer with
        | None ->
          outcome_of_kernel
            (Fairmis.Luby.run_kernel_on ~stage (Kernel.create ~ids view) plan)
        | Some tracer ->
          Runtime.run ~ids ~tracer
            ~rng_of:(fun i -> Rand_plan.node_stream plan ~stage ~node:ids.(i))
            view
            (Fairmis.Luby.program plan ~stage)) }

type rung = Radius of int | Full_recompute

type config = {
  algorithm : algorithm;
  ladder : rung list;
  strict : bool;
  check_every : int;
  timeout : float option;
  backoff : int -> float;
  sleep : float -> unit;
  clock : unit -> float;
  seed : int;
  metrics : Mis_obs.Metrics.t option;
  decisions : Mis_obs.Trace.sink;
  critpath : bool;
}

let default_config =
  { algorithm = luby;
    ladder = [ Radius 1; Radius 2; Full_recompute ];
    strict = false;
    check_every = 0;
    timeout = None;
    backoff = (fun _ -> 0.);
    sleep = (fun s -> if s > 0. then Unix.sleepf s);
    clock = Unix.gettimeofday;
    seed = 1;
    metrics = None;
    decisions = Mis_obs.Trace.null;
    critpath = false }

type t = {
  cfg : config;
  g : Dyn_graph.t;
  mem : bool array;  (* current membership; false on dead slots *)
  mutable batches : int;
}

exception Invariant_violation of string

let validate_config cfg =
  if cfg.ladder = [] then invalid_arg "Maintain.create: empty ladder";
  List.iter
    (function
      | Radius r when r < 1 ->
        invalid_arg "Maintain.create: ladder radius must be >= 1"
      | Radius _ | Full_recompute -> ())
    cfg.ladder;
  if cfg.check_every < 0 then
    invalid_arg "Maintain.create: check_every must be >= 0";
  match cfg.timeout with
  | Some s when not (s > 0.) ->
    invalid_arg "Maintain.create: timeout must be > 0"
  | _ -> ()

let create ?(config = default_config) ~capacity () =
  validate_config config;
  { cfg = config;
    g = Dyn_graph.create ~capacity;
    mem = Array.make capacity false;
    batches = 0 }

let config t = t.cfg
let graph t = t.g
let batches t = t.batches
let mis t = Array.copy t.mem
let in_mis t u = t.mem.(u)

type report = {
  batch : int;
  events : int;
  applied : int;
  skipped : int;
  dirty : int;
  region_nodes : int array;
  rounds : int;
  attempts : int;
  escalated : bool;
  full_recompute : bool;
  repair_seconds : float;
  flips : int;
  live : int;
  critpath_len : int;
}

(* --- metrics helpers ---------------------------------------------------- *)

let mcount t name by =
  match t.cfg.metrics with
  | None -> ()
  | Some reg -> Metrics.incr ~by (Metrics.counter reg name)

let mobserve t name v =
  match t.cfg.metrics with
  | None -> ()
  | Some reg -> Metrics.observe_int (Metrics.histogram reg name) v

let mgauge t name v =
  match t.cfg.metrics with
  | None -> ()
  | Some reg -> Metrics.set (Metrics.gauge reg name) v

(* --- event application -------------------------------------------------- *)

(* Apply one event; accumulate dirty seeds (alive nodes whose validity may
   have broken) and return (applied, skipped) deltas. The seeding rules
   are the minimal sound ones:
   - an inserted edge breaks independence only when both endpoints are
     members;
   - a deleted member/non-member edge may un-cover the non-member end;
   - a joined node is undecided (the region-exclusion step covers it for
     free when a frozen member neighbors it);
   - a departed or crashed member may have been the only cover of each of
     its neighbors. *)
let apply_event t ~seed_node ev =
  let g = t.g in
  let cap = Dyn_graph.capacity g in
  let in_range u = u >= 0 && u < cap in
  match ev with
  | Event.Node_join { node; edges } ->
    if (not (in_range node)) || not (Dyn_graph.join g node) then (0, 1)
    else begin
      t.mem.(node) <- false;
      seed_node node;
      (* Dead or out-of-range endpoints are skipped and counted, the join
         itself still applies. *)
      let skipped = ref 0 in
      List.iter
        (fun v ->
          if in_range v && Dyn_graph.insert_edge g node v then begin
            (* [node] is not a member yet, so the member-member insert
               rule cannot fire; the join seed already covers it. *)
            ()
          end
          else incr skipped)
        edges;
      (1, !skipped)
    end
  | Event.Node_leave { node } ->
    if not (in_range node) then (0, 1)
    else begin
      let was_member = t.mem.(node) in
      let former = if was_member then Dyn_graph.adj_alive_sorted g node else [||] in
      if not (Dyn_graph.leave g node) then (0, 1)
      else begin
        t.mem.(node) <- false;
        Array.iter seed_node former;
        (1, 0)
      end
    end
  | Event.Node_crash { node } ->
    if not (in_range node) then (0, 1)
    else begin
      let was_member = t.mem.(node) in
      let former = if was_member then Dyn_graph.adj_alive_sorted g node else [||] in
      if not (Dyn_graph.crash g node) then (0, 1)
      else begin
        t.mem.(node) <- false;
        Array.iter seed_node former;
        (1, 0)
      end
    end
  | Event.Edge_insert { u; v } ->
    if (not (in_range u)) || (not (in_range v))
       || not (Dyn_graph.insert_edge g u v)
    then (0, 1)
    else begin
      if t.mem.(u) && t.mem.(v) then begin
        seed_node u;
        seed_node v
      end;
      (1, 0)
    end
  | Event.Edge_delete { u; v } ->
    if (not (in_range u)) || (not (in_range v))
       || not (Dyn_graph.delete_edge g u v)
    then (0, 1)
    else begin
      (if t.mem.(u) && not t.mem.(v) then seed_node v
       else if t.mem.(v) && not t.mem.(u) then seed_node u
       else if t.mem.(u) && t.mem.(v) then begin
         (* Only reachable from an already-broken state; repair both. *)
         seed_node u;
         seed_node v
       end);
      (1, 0)
    end

(* --- repair ------------------------------------------------------------- *)

type attempt_result = {
  a_dirty : int;
  a_region : int array;  (* sorted global numbers handed to the program *)
  a_rounds : int;
  a_changes : (int * bool) list;  (* proposed membership of dirty nodes *)
  a_events : Trace.event list;
      (* the attempt's trace, for critical-path stats; [] unless
         [config.critpath] and a program actually ran *)
}

(* Dirty closure at [radius]: BFS-widen the seeds by [radius - 1] hops,
   then close under "alive neighbors of dirty members are dirty" (those
   neighbors may lose their cover when the member is re-decided). *)
let dirty_set t ~seeds ~radius =
  let g = t.g in
  let cap = Dyn_graph.capacity g in
  let dirty = Array.make cap false in
  let frontier = ref [] in
  List.iter
    (fun u ->
      if Dyn_graph.alive g u && not dirty.(u) then begin
        dirty.(u) <- true;
        frontier := u :: !frontier
      end)
    seeds;
  for _ = 2 to radius do
    let next = ref [] in
    List.iter
      (fun u ->
        Dyn_graph.iter_adj_alive g u (fun v ->
            if not dirty.(v) then begin
              dirty.(v) <- true;
              next := v :: !next
            end))
      !frontier;
    frontier := !next
  done;
  (* Member closure over a worklist: widening can pull in members whose
     dependents must follow. *)
  let work = ref [] in
  Array.iteri (fun u d -> if d && t.mem.(u) then work := u :: !work) dirty;
  while !work <> [] do
    let u = List.hd !work in
    work := List.tl !work;
    Dyn_graph.iter_adj_alive t.g u (fun v ->
        if not dirty.(v) then begin
          dirty.(v) <- true;
          if t.mem.(v) then work := v :: !work
        end)
  done;
  dirty

let attempt_seed t ~batch ~attempt =
  Int64.to_int
    (Splitmix.derive (Int64.of_int t.cfg.seed) [ 0xD71A; batch; attempt ])
  land max_int

(* Ring capacity for critpath attempt traces. An overflowed ring loses
   its Run_begin, Causal.analyze rejects it, and the batch is counted in
   dyn.repair.critpath_failures instead of producing a bogus path. *)
let critpath_capacity = 1 lsl 18

(* One repair attempt. Returns the proposed membership changes without
   committing them, so a timed-out or incomplete attempt leaves the
   maintained state untouched for the next rung. *)
let run_attempt t ~batch ~attempt ~seeds rung =
  let g = t.g in
  let cap = Dyn_graph.capacity g in
  let tracer, a_events =
    if not t.cfg.critpath then (None, fun () -> [])
    else begin
      let sink, events = Trace.memory ~capacity:critpath_capacity () in
      (Some sink, events)
    end
  in
  match rung with
  | Full_recompute ->
    let view = Dyn_graph.live_view g in
    let ids = Array.init cap Fun.id in
    let o =
      t.cfg.algorithm.alg_run ?tracer view ~ids
        ~seed:(attempt_seed t ~batch ~attempt)
    in
    let alive = Dyn_graph.alive_nodes g in
    if not (Array.for_all (fun u -> o.Runtime.decided.(u)) alive) then None
    else
      Some
        { a_dirty = Array.length alive;
          a_region = alive;
          a_rounds = o.Runtime.rounds;
          a_changes =
            Array.to_list
              (Array.map (fun u -> (u, o.Runtime.output.(u))) alive);
          a_events = a_events () }
  | Radius radius ->
    let dirty = dirty_set t ~seeds ~radius in
    (* Frozen-member exclusion: a dirty node adjacent to a member outside
       the dirty set is covered by it and must stay out of the set. *)
    let excluded u =
      let e = ref false in
      Dyn_graph.iter_adj_alive g u (fun v ->
          if t.mem.(v) && not dirty.(v) then e := true);
      !e
    in
    let region = ref [] and covered = ref [] and dirty_n = ref 0 in
    for u = cap - 1 downto 0 do
      if dirty.(u) then begin
        incr dirty_n;
        if excluded u then covered := u :: !covered else region := u :: !region
      end
    done;
    let region = Array.of_list !region in
    (* sorted ascending by construction *)
    if Array.length region = 0 then
      Some
        { a_dirty = !dirty_n;
          a_region = [||];
          a_rounds = 0;
          a_changes = List.map (fun u -> (u, false)) !covered;
          a_events = [] }
    else begin
      let k = Array.length region in
      let slot = Hashtbl.create (2 * k) in
      Array.iteri (fun i u -> Hashtbl.replace slot u i) region;
      let edges = ref [] in
      Array.iteri
        (fun i u ->
          Dyn_graph.iter_adj_alive g u (fun v ->
              if u < v && dirty.(v) then
                match Hashtbl.find_opt slot v with
                | Some j -> edges := (i, j) :: !edges
                | None -> ()))
        region;
      let sub = Graph.of_edge_array ~n:k (Array.of_list !edges) in
      let o =
        t.cfg.algorithm.alg_run ?tracer (View.full sub) ~ids:region
          ~seed:(attempt_seed t ~batch ~attempt)
      in
      if not (Array.for_all Fun.id o.Runtime.decided) then None
      else
        Some
          { a_dirty = !dirty_n;
            a_region = region;
            a_rounds = o.Runtime.rounds;
            a_changes =
              List.map (fun u -> (u, false)) !covered
              @ Array.to_list
                  (Array.mapi (fun i u -> (u, o.Runtime.output.(i))) region);
            a_events = a_events () }
    end

let emit_decisions t ~batch changes =
  let sink = t.cfg.decisions in
  if not (Trace.is_null sink) then begin
    List.iter
      (fun (u, m) ->
        sink.Trace.emit (Trace.Decide { round = batch; node = u; in_mis = m }))
      changes;
    sink.Trace.flush ()
  end

let checker t =
  let view, crashed = Dyn_graph.to_view t.g in
  if Check.is_surviving_mis view ~crashed t.mem then Ok ()
  else
    Error
      (spf
         "batch %d: maintained set is not an MIS of the surviving view \
          (%d live nodes)"
         t.batches
         (Dyn_graph.alive_count t.g))

let check = checker

(* Climb the ladder; each rung gets a fresh attempt against the
   un-committed pre-repair state. *)
let repair t ~batch ~seeds =
  let rec go attempt total = function
    | [] ->
      raise
        (Invariant_violation
           (spf "batch %d: every repair rung failed (%d attempts)" batch
              (attempt - 1)))
    | rung :: rest ->
      if attempt > 1 then begin
        mcount t "dyn.repair.escalations" 1;
        t.cfg.sleep (t.cfg.backoff attempt)
      end;
      mcount t "dyn.repair.attempts" 1;
      let t0 = t.cfg.clock () in
      let result =
        Prof.gspan "dyn.repair.attempt" (fun () ->
            run_attempt t ~batch ~attempt ~seeds rung)
      in
      let elapsed = max 0. (t.cfg.clock () -. t0) in
      let total = total +. elapsed in
      let timed_out =
        match t.cfg.timeout with Some b -> elapsed > b | None -> false
      in
      (match result with
      | Some r when not timed_out -> (r, attempt, rung, total)
      | Some _ ->
        mcount t "dyn.repair.timeouts" 1;
        go (attempt + 1) total rest
      | None ->
        mcount t "dyn.repair.incomplete" 1;
        go (attempt + 1) total rest)
  in
  go 1 0. t.cfg.ladder

let apply_batch t events =
  Prof.gspan "dyn.batch" (fun () ->
      t.batches <- t.batches + 1;
      let batch = t.batches in
      mcount t "dyn.batches" 1;
      let seeds = ref [] in
      let seen = Hashtbl.create 16 in
      let seed_node u =
        if not (Hashtbl.mem seen u) then begin
          Hashtbl.replace seen u ();
          seeds := u :: !seeds
        end
      in
      let applied = ref 0 and skipped = ref 0 in
      List.iter
        (fun ev ->
          let a, s = apply_event t ~seed_node ev in
          if t.cfg.metrics <> None then
            mcount t ("dyn.events." ^ Event.kind ev) 1;
          applied := !applied + a;
          skipped := !skipped + s)
        events;
      mcount t "dyn.events.skipped" !skipped;
      (* Seeds list in first-marked order; keep deterministic. *)
      let seeds = List.rev !seeds in
      let result, attempts, rung, elapsed = repair t ~batch ~seeds in
      (* Commit. *)
      let flips = ref 0 in
      List.iter
        (fun (u, m) ->
          if t.mem.(u) <> m then incr flips;
          t.mem.(u) <- m)
        result.a_changes;
      emit_decisions t ~batch result.a_changes;
      let full = rung = Full_recompute in
      if full then mcount t "dyn.repair.full_recomputes" 1;
      mcount t "dyn.flips" !flips;
      mobserve t "dyn.repair.dirty_nodes" result.a_dirty;
      mobserve t "dyn.repair.region_nodes" (Array.length result.a_region);
      mobserve t "dyn.repair.rounds" result.a_rounds;
      (* Critical-path stats of the accepted attempt (config.critpath).
         On the fault-free region runs the path length equals the repair
         round count; the value of the analysis is the delivery/local
         split and the waste counters. *)
      let critpath_len =
        if result.a_events = [] then -1
        else
          match Mis_obs.Causal.analyze result.a_events with
          | Ok c ->
            let len = Mis_obs.Causal.length c in
            mobserve t "dyn.repair.critpath_len" len;
            mobserve t "dyn.repair.critpath_delivery_steps"
              c.Mis_obs.Causal.delivery_steps;
            mcount t "dyn.repair.wasted_sends"
              (c.Mis_obs.Causal.waste.Mis_obs.Causal.w_to_decided
              + c.Mis_obs.Causal.waste.Mis_obs.Causal.w_to_crashed);
            len
          | Error _ ->
            (* e.g. the attempt overflowed the trace ring *)
            mcount t "dyn.repair.critpath_failures" 1;
            -1
      in
      (match t.cfg.metrics with
      | None -> ()
      | Some reg ->
        Metrics.timer_add
          (Metrics.timer reg "dyn.repair.seconds")
          ~seconds:elapsed ~calls:1);
      (* Invariant checker: hard-fail fast in strict mode, self-heal (and
         count) otherwise. *)
      let checked =
        t.cfg.check_every > 0 && batch mod t.cfg.check_every = 0
      in
      let healed = ref false in
      if checked then begin
        match checker t with
        | Ok () -> ()
        | Error msg ->
          mcount t "dyn.invariant_violations" 1;
          if t.cfg.strict then raise (Invariant_violation msg);
          (* Graceful degradation: force the floor of the ladder. *)
          healed := true;
          (match
             run_attempt t ~batch ~attempt:(attempts + 1) ~seeds Full_recompute
           with
          | Some r ->
            List.iter (fun (u, m) -> t.mem.(u) <- m) r.a_changes;
            emit_decisions t ~batch r.a_changes
          | None -> raise (Invariant_violation msg));
          (match checker t with
          | Ok () -> ()
          | Error msg -> raise (Invariant_violation msg))
      end;
      if t.cfg.metrics <> None then begin
        (* Degradation-ladder position of the accepted repair: rung index
           0 while healthy, the ladder floor after a self-heal. *)
        let level =
          if !healed then List.length t.cfg.ladder - 1 else attempts - 1
        in
        mgauge t "dyn.ladder.level" (float_of_int level);
        mgauge t "dyn.live_nodes"
          (float_of_int (Dyn_graph.alive_count t.g));
        let members = ref 0 in
        Array.iteri
          (fun u m -> if m && Dyn_graph.alive t.g u then incr members)
          t.mem;
        mgauge t "dyn.mis_members" (float_of_int !members)
      end;
      { batch;
        events = List.length events;
        applied = !applied;
        skipped = !skipped;
        dirty = result.a_dirty;
        region_nodes = result.a_region;
        rounds = result.a_rounds;
        attempts;
        escalated = attempts > 1 || !healed;
        full_recompute = full || !healed;
        repair_seconds = elapsed;
        flips = !flips;
        live = Dyn_graph.alive_count t.g;
        critpath_len })

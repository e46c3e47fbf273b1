(* Tests for the dynamic layer: topology events and their wire format,
   the live graph, the incremental maintainer (validity after arbitrary
   event batches, repair locality, the escalation ladder under injected
   timeouts), the resilient serve loop, and the churn generator. *)

module Event = Mis_dyn.Event
module Dyn_graph = Mis_dyn.Dyn_graph
module Maintain = Mis_dyn.Maintain
module Serve = Mis_dyn.Serve
module Churn = Mis_workload.Churn
module Json = Mis_obs.Json
module Metrics = Mis_obs.Metrics
module Check = Mis_graph.Check
module View = Mis_graph.View
module Runtime = Mis_sim.Runtime
module Splitmix = Mis_util.Splitmix

let sample_events =
  [ Event.Node_join { node = 7; edges = [ 2; 5 ] };
    Event.Node_join { node = 0; edges = [] };
    Event.Node_leave { node = 3 };
    Event.Edge_insert { u = 1; v = 4 };
    Event.Edge_delete { u = 4; v = 1 };
    Event.Node_crash { node = 9 } ]

(* --- events ------------------------------------------------------------ *)

let test_event_roundtrip () =
  List.iter
    (fun ev ->
      match Event.parse_line (Event.to_json ev) with
      | Ok ev' ->
        Alcotest.(check bool)
          (Printf.sprintf "round-trip %s" (Event.kind ev))
          true (ev = ev')
      | Error e -> Alcotest.failf "%s: %s" (Event.kind ev) e)
    sample_events;
  Alcotest.(check (list string))
    "kinds cover the wire format"
    [ "node_join"; "node_leave"; "edge_insert"; "edge_delete"; "node_crash" ]
    Event.kinds

let expect_error name line =
  match Event.parse_line line with
  | Ok _ -> Alcotest.failf "%s: expected an error for %s" name line
  | Error _ -> ()

let test_event_rejects () =
  expect_error "batch marker is not an event" Event.batch_marker;
  expect_error "unknown type" {|{"type":"frobnicate"}|};
  expect_error "missing node" {|{"type":"node_leave"}|};
  expect_error "mistyped node" {|{"type":"node_leave","node":"x"}|};
  expect_error "negative node" {|{"type":"node_leave","node":-1}|};
  expect_error "missing edges" {|{"type":"node_join","node":3}|};
  expect_error "join self-loop" {|{"type":"node_join","node":3,"edges":[3]}|};
  expect_error "negative join edge"
    {|{"type":"node_join","node":3,"edges":[-2]}|};
  expect_error "edge self-loop" {|{"type":"edge_insert","u":2,"v":2}|};
  expect_error "negative endpoint" {|{"type":"edge_delete","u":-1,"v":2}|};
  expect_error "not an object" {|[1,2]|};
  expect_error "not json" "garbage";
  (match Json.parse Event.batch_marker with
  | Ok v -> Alcotest.(check bool) "marker detected" true (Event.is_batch_marker v)
  | Error e -> Alcotest.fail e)

(* --- dyn graph --------------------------------------------------------- *)

let test_dyn_graph_ops () =
  let g = Dyn_graph.create ~capacity:6 in
  Alcotest.(check bool) "join 0" true (Dyn_graph.join g 0);
  Alcotest.(check bool) "join 1" true (Dyn_graph.join g 1);
  Alcotest.(check bool) "join 2" true (Dyn_graph.join g 2);
  Alcotest.(check bool) "double join" false (Dyn_graph.join g 0);
  Alcotest.(check bool) "insert 0-1" true (Dyn_graph.insert_edge g 0 1);
  Alcotest.(check bool) "insert 1-2" true (Dyn_graph.insert_edge g 1 2);
  Alcotest.(check bool) "duplicate edge" false (Dyn_graph.insert_edge g 1 0);
  Alcotest.(check bool) "self-loop" false (Dyn_graph.insert_edge g 1 1);
  Alcotest.(check bool) "edge to absent" false (Dyn_graph.insert_edge g 0 5);
  Alcotest.(check int) "edge count" 2 (Dyn_graph.edge_count g);
  Alcotest.(check int) "alive count" 3 (Dyn_graph.alive_count g);
  Alcotest.(check bool) "mem 0-1" true (Dyn_graph.mem_edge g 0 1);
  (* Clean leave removes the node's edges and frees the slot. *)
  Alcotest.(check bool) "leave 1" true (Dyn_graph.leave g 1);
  Alcotest.(check bool) "leave absent" false (Dyn_graph.leave g 1);
  Alcotest.(check int) "edges gone with 1" 0 (Dyn_graph.edge_count g);
  Alcotest.(check bool) "slot 1 reusable" true (Dyn_graph.join g 1);
  Alcotest.(check bool) "rejoined without edges" false (Dyn_graph.mem_edge g 0 1);
  (* Crash keeps the slot dead forever; its edges stop counting. *)
  Alcotest.(check bool) "insert 0-2" true (Dyn_graph.insert_edge g 0 2);
  Alcotest.(check bool) "crash 2" true (Dyn_graph.crash g 2);
  Alcotest.(check bool) "crash twice" false (Dyn_graph.crash g 2);
  Alcotest.(check bool) "leave crashed" false (Dyn_graph.leave g 2);
  Alcotest.(check bool) "rejoin crashed slot" false (Dyn_graph.join g 2);
  Alcotest.(check bool) "edge to crashed" false (Dyn_graph.insert_edge g 0 2);
  Alcotest.(check int) "live edges" 0 (Dyn_graph.edge_count g);
  Alcotest.(check int) "alive after crash" 2 (Dyn_graph.alive_count g);
  Alcotest.check Helpers.int_array "alive nodes sorted" [| 0; 1 |]
    (Dyn_graph.alive_nodes g);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Dyn_graph.join: node 6 out of range") (fun () ->
      ignore (Dyn_graph.join g 6))

let test_dyn_graph_views () =
  let g = Dyn_graph.create ~capacity:5 in
  List.iter (fun u -> ignore (Dyn_graph.join g u)) [ 0; 1; 2; 3 ];
  List.iter
    (fun (u, v) -> ignore (Dyn_graph.insert_edge g u v))
    [ (0, 1); (1, 2); (2, 3) ];
  ignore (Dyn_graph.crash g 2);
  let view, crashed = Dyn_graph.to_view g in
  Alcotest.(check int) "view covers the universe" 5 (View.n view);
  Alcotest.check Helpers.bool_array "crashed mask"
    [| false; false; true; false; false |]
    crashed;
  (* Crashed slots stay active in the snapshot (their edges must be
     representable); absent slots do not. *)
  Alcotest.(check bool) "crashed active in view" true (View.node_active view 2);
  Alcotest.(check bool) "absent inactive in view" false (View.node_active view 4);
  let live = Dyn_graph.live_view g in
  Alcotest.(check bool) "crashed masked in live view" false
    (View.node_active live 2);
  Alcotest.(check int) "live edges = both-alive" 1 (Dyn_graph.edge_count g)

(* Model-based check of the adjacency representation: random operation
   sequences against a naive reference (a state array and a symmetric
   link matrix, links kept across crashes). Every return value and every
   reading must agree after each operation. [Star h] links a hub to every
   slot and [Unstar h] cuts all but one of its links, so vectors grow
   past their initial size and shrink back; frequent leaves and joins
   reuse slots. *)
type graph_op =
  | Join of int
  | Leave of int
  | Crash of int
  | Insert of int * int
  | Delete of int * int
  | Star of int
  | Unstar of int

let model_cap = 40

let show_graph_op = function
  | Join u -> Printf.sprintf "join %d" u
  | Leave u -> Printf.sprintf "leave %d" u
  | Crash u -> Printf.sprintf "crash %d" u
  | Insert (u, v) -> Printf.sprintf "insert %d-%d" u v
  | Delete (u, v) -> Printf.sprintf "delete %d-%d" u v
  | Star h -> Printf.sprintf "star %d" h
  | Unstar h -> Printf.sprintf "unstar %d" h

let arb_graph_ops =
  let open QCheck.Gen in
  let node = int_range 0 (model_cap - 1) in
  (* A few hot slots make hubs and collisions likely. *)
  let hot = int_range 0 3 in
  let op =
    frequency
      [ (6, map (fun u -> Join u) node);
        (2, map (fun u -> Leave u) (oneof [ node; hot ]));
        (1, map (fun u -> Crash u) node);
        (8, map2 (fun u v -> Insert (u, v)) (oneof [ node; hot ]) node);
        (5, map2 (fun u v -> Delete (u, v)) (oneof [ node; hot ]) node);
        (1, map (fun h -> Star h) hot);
        (1, map (fun h -> Unstar h) hot) ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_graph_op ops))
    (list_size (int_range 1 80) op)

type graph_model = {
  st : Dyn_graph.state array;
  link : bool array array;
}

let model_alive m u = m.st.(u) = Dyn_graph.Alive

let model_join m u =
  if m.st.(u) <> Dyn_graph.Absent then false
  else begin
    m.st.(u) <- Dyn_graph.Alive;
    true
  end

let model_leave m u =
  if not (model_alive m u) then false
  else begin
    for v = 0 to model_cap - 1 do
      m.link.(u).(v) <- false;
      m.link.(v).(u) <- false
    done;
    m.st.(u) <- Dyn_graph.Absent;
    true
  end

let model_crash m u =
  if not (model_alive m u) then false
  else begin
    m.st.(u) <- Dyn_graph.Crashed;
    true
  end

let model_set m u v b =
  if u = v || (not (model_alive m u)) || (not (model_alive m v))
     || m.link.(u).(v) = b
  then false
  else begin
    m.link.(u).(v) <- b;
    m.link.(v).(u) <- b;
    true
  end

let model_edges m keep =
  let acc = ref [] in
  for u = model_cap - 1 downto 0 do
    for v = model_cap - 1 downto u + 1 do
      if m.link.(u).(v) && keep u && keep v then acc := (u, v) :: !acc
    done
  done;
  !acc

let view_edges view =
  List.sort compare (Array.to_list (Mis_graph.Graph.edges (View.graph view)))

let agrees g m =
  let alive_nodes =
    List.filter (model_alive m) (List.init model_cap Fun.id)
  in
  Dyn_graph.alive_count g = List.length alive_nodes
  && Dyn_graph.edge_count g = List.length (model_edges m (model_alive m))
  && Array.to_list (Dyn_graph.alive_nodes g) = alive_nodes
  && List.for_all
       (fun u ->
         Dyn_graph.state g u = m.st.(u)
         && (let nbrs =
               List.filter
                 (fun v -> m.link.(u).(v) && model_alive m v)
                 (List.init model_cap Fun.id)
             in
             Array.to_list (Dyn_graph.adj_alive_sorted g u) = nbrs
             && Dyn_graph.degree_alive g u = List.length nbrs)
         && List.for_all
              (fun v -> Dyn_graph.mem_edge g u v = m.link.(u).(v))
              (List.init model_cap Fun.id))
       (List.init model_cap Fun.id)
  &&
  let view, crashed = Dyn_graph.to_view g in
  let present u = m.st.(u) <> Dyn_graph.Absent in
  view_edges view = model_edges m present
  && Array.to_list crashed
     = List.init model_cap (fun u -> m.st.(u) = Dyn_graph.Crashed)
  && List.for_all
       (fun u -> View.node_active view u = present u)
       (List.init model_cap Fun.id)
  &&
  let live = Dyn_graph.live_view g in
  view_edges live = model_edges m (model_alive m)
  && List.for_all
       (fun u -> View.node_active live u = model_alive m u)
       (List.init model_cap Fun.id)

let prop_dyn_graph_model =
  Helpers.qtest ~count:200 "dyn graph = naive model" arb_graph_ops (fun ops ->
      let g = Dyn_graph.create ~capacity:model_cap in
      let m =
        { st = Array.make model_cap Dyn_graph.Absent;
          link = Array.make_matrix model_cap model_cap false }
      in
      let step = function
        | Join u -> Dyn_graph.join g u = model_join m u
        | Leave u -> Dyn_graph.leave g u = model_leave m u
        | Crash u -> Dyn_graph.crash g u = model_crash m u
        | Insert (u, v) -> Dyn_graph.insert_edge g u v = model_set m u v true
        | Delete (u, v) ->
          Dyn_graph.delete_edge g u v = model_set m u v false
        | Star h ->
          Dyn_graph.join g h = model_join m h
          && List.for_all
            (fun v ->
              (Dyn_graph.join g v = model_join m v)
              && Dyn_graph.insert_edge g h v = model_set m h v true)
            (List.init model_cap Fun.id)
        | Unstar h ->
          let keep = ref true in
          List.for_all
            (fun v ->
              if m.link.(h).(v) && model_alive m v && !keep then begin
                keep := false;
                true
              end
              else Dyn_graph.delete_edge g h v = model_set m h v false)
            (List.init model_cap Fun.id)
      in
      List.for_all (fun op -> step op && agrees g m) ops)

(* --- maintainer -------------------------------------------------------- *)

let small_churn =
  { Churn.default with
    Churn.capacity = 48;
    initial = 24;
    batches = 20;
    arrival_mean = 3.;
    flap_mean = 2.;
    radius = 120. }


let strict_config ?(seed = 1) () =
  { Maintain.default_config with
    Maintain.strict = true;
    check_every = 1;
    seed }

let joins_of_path n =
  List.init n (fun u ->
      Event.Node_join { node = u; edges = (if u = 0 then [] else [ u - 1 ]) })

let test_config_validation () =
  let bad cfg = ignore (Maintain.create ~config:cfg ~capacity:4 ()) in
  Alcotest.check_raises "empty ladder"
    (Invalid_argument "Maintain.create: empty ladder") (fun () ->
      bad { Maintain.default_config with Maintain.ladder = [] });
  Alcotest.check_raises "radius 0"
    (Invalid_argument "Maintain.create: ladder radius must be >= 1")
    (fun () ->
      bad { Maintain.default_config with Maintain.ladder = [ Maintain.Radius 0 ] });
  Alcotest.check_raises "negative check_every"
    (Invalid_argument "Maintain.create: check_every must be >= 0") (fun () ->
      bad { Maintain.default_config with Maintain.check_every = -1 });
  Alcotest.check_raises "zero timeout"
    (Invalid_argument "Maintain.create: timeout must be > 0") (fun () ->
      bad { Maintain.default_config with Maintain.timeout = Some 0. });
  Alcotest.check_raises "capacity"
    (Invalid_argument "Dyn_graph.create: capacity must be >= 1") (fun () ->
      ignore (Maintain.create ~capacity:0 ()))

let test_skip_and_count () =
  let reg = Metrics.create () in
  let config = { (strict_config ()) with Maintain.metrics = Some reg } in
  let m = Maintain.create ~config ~capacity:4 () in
  let r =
    Maintain.apply_batch m
      [ Event.Node_join { node = 0; edges = [] };
        Event.Node_join { node = 1; edges = [ 0; 3; 99 ] };
        (* 3 and 99 skipped: dead / out of range *)
        Event.Node_join { node = 0; edges = [] };
        (* occupied slot *)
        Event.Node_leave { node = 2 };
        (* not alive *)
        Event.Edge_insert { u = 0; v = 1 };
        (* duplicate of the join edge *)
        Event.Edge_delete { u = 0; v = 3 };
        Event.Node_crash { node = 42 } ]
  in
  Alcotest.(check int) "events" 7 r.Maintain.events;
  Alcotest.(check int) "applied" 2 r.Maintain.applied;
  Alcotest.(check int) "skipped" 7 r.Maintain.skipped;
  Alcotest.(check int) "metric"
    7
    (Metrics.counter_value (Metrics.counter reg "dyn.events.skipped"));
  Alcotest.(check int) "live" 2 r.Maintain.live;
  (* The surviving MIS invariant held after the batch (strict mode would
     have raised otherwise) and exactly one endpoint of 0-1 is in. *)
  Alcotest.(check bool) "one of the pair is in" true
    (Maintain.in_mis m 0 <> Maintain.in_mis m 1)

let test_locality () =
  let n = 60 in
  let m = Maintain.create ~config:(strict_config ()) ~capacity:n () in
  ignore (Maintain.apply_batch m (joins_of_path n));
  let before = Maintain.mis m in
  (* Break independence on purpose: link two members a couple of hops
     apart and check the repair stays in their neighborhood. *)
  let u = ref (-1) in
  (try
     for i = 0 to n - 3 do
       if before.(i) && before.(i + 2) then begin
         u := i;
         raise Exit
       end
     done
   with Exit -> ());
  if !u < 0 then Alcotest.fail "no member pair at distance 2 on a path MIS";
  let u = !u in
  let r = Maintain.apply_batch m [ Event.Edge_insert { u; v = u + 2 } ] in
  Alcotest.(check bool) "no escalation" false r.Maintain.escalated;
  Alcotest.(check bool) "no full recompute" false r.Maintain.full_recompute;
  Alcotest.(check int) "single attempt" 1 r.Maintain.attempts;
  Alcotest.(check bool) "conflict resolved" true
    (not (Maintain.in_mis m u) || not (Maintain.in_mis m (u + 2)));
  (* Everything the program re-decided lies within 3 hops of the insert
     (Radius 1 widening plus the member closure), and nothing outside
     the region flipped. *)
  let after = Maintain.mis m in
  let in_region = Array.make n false in
  Array.iter
    (fun w ->
      Alcotest.(check bool)
        (Printf.sprintf "region node %d within 3 hops of %d-%d" w u (u + 2))
        true
        (w >= u - 3 && w <= u + 5);
      in_region.(w) <- true)
    r.Maintain.region_nodes;
  for w = 0 to n - 1 do
    if not in_region.(w) then
      Alcotest.(check bool)
        (Printf.sprintf "node %d outside the region did not flip" w)
        true
        (before.(w) = after.(w))
  done

let test_escalation_on_timeout () =
  let reg = Metrics.create () in
  let slept = ref [] in
  (* The injected clock replays a script: batch 1 (bootstrap) repairs in
     0.001s; batch 2's first attempt takes 10s (> the 1s budget) and its
     retry 0.001s. Two clock reads per attempt. *)
  let script = ref [ 0.; 0.001; 1.; 11.; 11.; 11.001 ] in
  let clock () =
    match !script with
    | x :: rest ->
      script := rest;
      x
    | [] -> Alcotest.fail "clock read past the script"
  in
  let config =
    { (strict_config ()) with
      Maintain.metrics = Some reg;
      timeout = Some 1.;
      backoff = (fun attempt -> float_of_int attempt);
      sleep = (fun s -> slept := s :: !slept);
      clock }
  in
  let m = Maintain.create ~config ~capacity:10 () in
  let r1 = Maintain.apply_batch m (joins_of_path 10) in
  Alcotest.(check int) "bootstrap needs one attempt" 1 r1.Maintain.attempts;
  let r2 = Maintain.apply_batch m [ Event.Node_leave { node = 4 } ] in
  Alcotest.(check int) "retry accepted" 2 r2.Maintain.attempts;
  Alcotest.(check bool) "escalated" true r2.Maintain.escalated;
  Alcotest.(check bool) "still not a full recompute" false
    r2.Maintain.full_recompute;
  Alcotest.(check (float 1e-9)) "repair time sums both attempts" 10.001
    r2.Maintain.repair_seconds;
  Alcotest.(check (list (float 1e-9))) "backed off before the retry" [ 2. ]
    !slept;
  Alcotest.(check int) "timeout counted" 1
    (Metrics.counter_value (Metrics.counter reg "dyn.repair.timeouts"));
  Alcotest.(check int) "escalation counted" 1
    (Metrics.counter_value (Metrics.counter reg "dyn.repair.escalations"));
  match Maintain.check m with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_ladder_exhaustion_raises () =
  (* Every attempt blows the budget: the single-rung ladder must give up
     with Invariant_violation rather than commit a late result. *)
  let now = ref 0. in
  let clock () =
    now := !now +. 10.;
    !now
  in
  let config =
    { Maintain.default_config with
      Maintain.ladder = [ Maintain.Radius 1 ];
      timeout = Some 1.;
      clock }
  in
  let m = Maintain.create ~config ~capacity:4 () in
  (match
     Maintain.apply_batch m [ Event.Node_join { node = 0; edges = [] } ]
   with
  | exception Maintain.Invariant_violation _ -> ()
  | _ -> Alcotest.fail "expected Invariant_violation");
  (* Nothing was committed by the failed batch. *)
  Alcotest.(check bool) "no membership committed" false (Maintain.in_mis m 0)

(* Arbitrary event batches over a small universe, including inapplicable
   and out-of-range events — validity (not any particular membership) is
   the maintained invariant. *)
let arb_event_batches =
  let open QCheck in
  let cap = 16 in
  let node = Gen.int_range 0 (cap + 1) in
  let event =
    Gen.frequency
      [ ( 4,
          Gen.map2
            (fun n es -> Event.Node_join { node = n; edges = es })
            node
            (Gen.list_size (Gen.int_range 0 4) node) );
        (2, Gen.map (fun n -> Event.Node_leave { node = n }) node);
        (1, Gen.map (fun n -> Event.Node_crash { node = n }) node);
        ( 3,
          Gen.map2 (fun u v -> Event.Edge_insert { u; v }) node node );
        ( 2,
          Gen.map2 (fun u v -> Event.Edge_delete { u; v }) node node ) ]
  in
  let batches =
    Gen.list_size (Gen.int_range 1 8)
      (Gen.list_size (Gen.int_range 0 12) event)
  in
  make
    ~print:(fun bs ->
      String.concat "\n"
        (List.map
           (fun b -> String.concat " " (List.map Event.to_json b))
           bs))
    batches

let prop_maintainer_valid_after_any_batch =
  Helpers.qtest ~count:150 "maintained MIS valid after any event batch"
    QCheck.(pair Helpers.arb_seed arb_event_batches)
    (fun (seed, batches) ->
      (* Self-loops are rejected at parse time, not at apply time; drop
         them here since we generate raw events. *)
      let batches =
        List.map
          (List.filter_map (function
            | Event.Edge_insert { u; v } when u = v -> None
            | Event.Edge_delete { u; v } when u = v -> None
            | Event.Node_join { node; edges } ->
              Some
                (Event.Node_join
                   { node; edges = List.filter (fun v -> v <> node) edges })
            | ev -> Some ev))
          batches
      in
      let m = Maintain.create ~config:(strict_config ~seed ()) ~capacity:16 () in
      (* strict + check_every=1: apply_batch raises on any violation. *)
      List.iter (fun b -> ignore (Maintain.apply_batch m b)) batches;
      match Maintain.check m with Ok () -> true | Error _ -> false)

let prop_repair_matches_membership_semantics =
  Helpers.qtest ~count:60 "dead slots never members; members always alive"
    QCheck.(pair Helpers.arb_seed arb_event_batches)
    (fun (seed, batches) ->
      let m = Maintain.create ~config:(strict_config ~seed ()) ~capacity:16 () in
      List.iter
        (fun b ->
          ignore
            (Maintain.apply_batch m
               (List.filter
                  (function
                    | Event.Edge_insert { u; v } | Event.Edge_delete { u; v }
                      -> u <> v
                    | _ -> true)
                  b)))
        batches;
      let g = Maintain.graph m in
      let mis = Maintain.mis m in
      Array.for_all Fun.id
        (Array.mapi
           (fun u in_set -> (not in_set) || Dyn_graph.alive g u)
           mis))

(* A traced repair ([critpath]) runs on the message engine, an untraced
   one on the kernel: both must commit the same repairs. Reports agree
   on everything but the wall clock and the critical-path length, which
   only a traced attempt measures. Odd seeds serve the stream under full
   recompute, so masked live views take both paths too. *)
let same_repair (a : Maintain.report) (b : Maintain.report) =
  { a with Maintain.repair_seconds = 0.; critpath_len = 0 }
  = { b with Maintain.repair_seconds = 0.; critpath_len = 0 }

let prop_critpath_backend_agrees =
  Helpers.qtest ~count:25 "critpath (engine) and kernel repairs agree"
    Helpers.arb_seed (fun seed ->
      let stream = Churn.generate (Splitmix.of_seed seed) small_churn in
      let serve critpath =
        let config =
          { (strict_config ~seed ()) with
            Maintain.critpath;
            ladder =
              (if seed mod 2 = 0 then Maintain.default_config.Maintain.ladder
               else [ Maintain.Full_recompute ]) }
        in
        let m =
          Maintain.create ~config ~capacity:small_churn.Churn.capacity ()
        in
        let reports = List.map (Maintain.apply_batch m) stream in
        (reports, Maintain.mis m)
      in
      let traced, traced_mis = serve true and plain, plain_mis = serve false in
      List.for_all2 same_repair traced plain
      && traced_mis = plain_mis
      && List.exists (fun r -> r.Maintain.critpath_len >= 0) traced)

(* [Maintain.luby] on its two backends, called directly on regions named
   by sparse global ids: the kernel outcome fills the engine's outcome
   type with the same decisions, the same rounds and the same per-round
   decision counts. *)
let prop_luby_alg_run_backends =
  Helpers.qtest ~count:60 "Maintain.luby: kernel outcome = engine outcome"
    QCheck.(pair Helpers.arb_seed (int_range 1 30))
    (fun (seed, n) ->
      let view = View.full (Helpers.random_graph ~seed ~n ~p:0.25) in
      let ids = Array.init n (fun i -> (3 * i) + (seed mod 3)) in
      let run tracer = Maintain.luby.Maintain.alg_run ?tracer view ~ids ~seed in
      let sink, _ = Mis_obs.Trace.memory () in
      let e = run (Some sink) and k = run None in
      let decided_per_round (o : Runtime.outcome) =
        Array.map (fun r -> r.Runtime.rs_decided) o.Runtime.round_stats
      in
      e.Runtime.output = k.Runtime.output
      && e.Runtime.decided = k.Runtime.decided
      && e.Runtime.rounds = k.Runtime.rounds
      && decided_per_round e = decided_per_round k
      && k.Runtime.messages = 0)

(* dyn.repair.rounds observes every accepted repair, whichever backend
   ran it (sim.* totals count message-engine runs only). *)
let test_repair_rounds_histogram () =
  let reg = Metrics.create () in
  let config = { (strict_config ()) with Maintain.metrics = Some reg } in
  let m = Maintain.create ~config ~capacity:small_churn.Churn.capacity () in
  let stream = Churn.generate (Splitmix.of_seed 6) small_churn in
  let reports = List.map (Maintain.apply_batch m) stream in
  match List.assoc_opt "dyn.repair.rounds" (Metrics.items (Metrics.snapshot reg)) with
  | Some (Metrics.Histogram_v { v_count; v_sum; _ }) ->
    Alcotest.(check int) "one observation per batch" (List.length reports)
      v_count;
    Alcotest.(check (float 0.)) "sum of report rounds"
      (float_of_int
         (List.fold_left (fun a r -> a + r.Maintain.rounds) 0 reports))
      v_sum;
    Alcotest.(check bool) "repairs ran rounds" true (v_sum > 0.)
  | _ -> Alcotest.fail "dyn.repair.rounds histogram missing"

(* --- serve ------------------------------------------------------------- *)

let with_stream lines f =
  let path = Filename.temp_file "fairmis_serve" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        lines;
      close_out oc;
      let ic = open_in path in
      Fun.protect ~finally:(fun () -> close_in ic) (fun () -> f path ic))

let test_serve_markers_and_malformed () =
  let reg = Metrics.create () in
  let config = { (strict_config ()) with Maintain.metrics = Some reg } in
  let m = Maintain.create ~config ~capacity:8 () in
  let logs = ref [] in
  let stats =
    with_stream
      [ {|{"type":"node_join","node":0,"edges":[]}|};
        {|{"type":"node_join","node":1,"edges":[0]}|};
        "this is not json";
        Event.batch_marker;
        "";
        {|{"type":"node_join","node":9000}|};
        {|{"type":"edge_delete","u":0,"v":1}|};
        Event.batch_marker;
        Event.batch_marker (* a quiet period still counts as a batch *) ]
      (fun path ic ->
        Serve.run ~file:path ~log:(fun s -> logs := s :: !logs) m ic)
  in
  Alcotest.(check int) "batches" 3 stats.Serve.batches;
  Alcotest.(check int) "lines" 9 stats.Serve.lines;
  Alcotest.(check int) "events" 3 stats.Serve.events;
  Alcotest.(check int) "applied" 3 stats.Serve.applied;
  Alcotest.(check int) "malformed" 2 stats.Serve.malformed;
  Alcotest.(check int) "malformed metric" 2
    (Metrics.counter_value (Metrics.counter reg "dyn.events.malformed"));
  Alcotest.(check int) "two skipped lines logged" 2 (List.length !logs);
  (* Each skipped line is reported as "FILE:LINE: skipping ...". *)
  let positions =
    List.sort compare
      (List.map
         (fun line ->
           try Scanf.sscanf line "%s@:%d: skipping malformed event" (fun f l -> (f, l))
           with Scanf.Scan_failure _ | End_of_file ->
             Alcotest.failf "log line without a position: %s" line)
         !logs)
  in
  (match positions with
  | [ (f1, 3); (f2, 6) ] ->
    Alcotest.(check bool) "positions name the stream file" true
      (Filename.check_suffix f1 ".jsonl" && f1 = f2)
  | _ -> Alcotest.failf "unexpected positions (%d)" (List.length positions));
  (* After deleting 0-1 both nodes are isolated survivors: both must be
     members of the maintained MIS. *)
  Alcotest.(check bool) "isolated nodes re-covered" true
    (Maintain.in_mis m 0 && Maintain.in_mis m 1)

let test_serve_batch_size_and_eof () =
  let m = Maintain.create ~config:(strict_config ()) ~capacity:8 () in
  let events =
    List.init 5 (fun u ->
        Event.to_json (Event.Node_join { node = u; edges = [] }))
  in
  let stats =
    with_stream events (fun _path ic -> Serve.run ~batch_size:2 m ic)
  in
  (* 2 + 2 + EOF flush of the odd event out. *)
  Alcotest.(check int) "batches" 3 stats.Serve.batches;
  Alcotest.(check int) "events" 5 stats.Serve.events;
  let stats2 =
    with_stream events (fun _path ic ->
        Serve.run ~batch_size:2 ~max_batches:1
          (Maintain.create ~config:(strict_config ()) ~capacity:8 ())
          ic)
  in
  Alcotest.(check int) "max_batches stops the loop" 1 stats2.Serve.batches

let test_percentile () =
  let module Sketch = Mis_obs.Sketch in
  let pct xs q = Sketch.nearest_rank xs q in
  let xs = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (option (float 1e-9))) "p50" (Some 50.) (pct xs 0.50);
  Alcotest.(check (option (float 1e-9))) "p95" (Some 95.) (pct xs 0.95);
  Alcotest.(check (option (float 1e-9))) "p100" (Some 100.) (pct xs 1.0);
  Alcotest.(check (option (float 1e-9)))
    "single sample" (Some 7.)
    (pct [| 7. |] 0.5);
  Alcotest.(check (option (float 1e-9))) "empty is None" None (pct [||] 0.5)

(* --- churn generator --------------------------------------------------- *)

let test_churn_deterministic () =
  let s1 = Churn.generate (Splitmix.of_seed 11) small_churn in
  let s2 = Churn.generate (Splitmix.of_seed 11) small_churn in
  Alcotest.(check bool) "same seed, same stream" true (s1 = s2);
  let s3 = Churn.generate (Splitmix.of_seed 12) small_churn in
  Alcotest.(check bool) "different seed, different stream" false (s1 = s3);
  Alcotest.(check int) "bootstrap plus churn batches"
    (small_churn.Churn.batches + 1)
    (List.length s1);
  (match s1 with
  | bootstrap :: _ ->
    Alcotest.(check int) "bootstrap joins the initial cloud"
      small_churn.Churn.initial
      (List.length bootstrap);
    List.iter
      (function
        | Event.Node_join _ -> ()
        | ev -> Alcotest.failf "bootstrap contains a %s" (Event.kind ev))
      bootstrap
  | [] -> Alcotest.fail "empty stream")

let test_churn_validate () =
  let bad p = ignore (Churn.generate (Splitmix.of_seed 1) p) in
  Alcotest.check_raises "initial > capacity"
    (Invalid_argument
       "Churn.validate: initial must be in [0, capacity] (got 99)") (fun () ->
      bad { small_churn with Churn.capacity = 10; initial = 99 });
  Alcotest.check_raises "pareto scale"
    (Invalid_argument "Churn.validate: lifetime_min must be >= 1 (got 0)")
    (fun () -> bad { small_churn with Churn.lifetime_min = 0. });
  Alcotest.check_raises "crash prob"
    (Invalid_argument "Churn.validate: crash_prob must be in [0, 1] (got 2)")
    (fun () -> bad { small_churn with Churn.crash_prob = 2. })

let prop_churn_streams_are_clean =
  Helpers.qtest ~count:25 "churn streams apply without skips, MIS stays valid"
    Helpers.arb_seed
    (fun seed ->
      let stream = Churn.generate (Splitmix.of_seed seed) small_churn in
      let m =
        Maintain.create ~config:(strict_config ~seed ())
          ~capacity:small_churn.Churn.capacity ()
      in
      let skipped = ref 0 in
      List.iter
        (fun b ->
          let r = Maintain.apply_batch m b in
          skipped := !skipped + r.Maintain.skipped)
        stream;
      (* strict + check_every=1 already guarantees validity; cleanliness
         is the generator's own contract. *)
      !skipped = 0)

let test_churn_jsonl_round_trip () =
  let stream = Churn.generate (Splitmix.of_seed 4) small_churn in
  let path = Filename.temp_file "fairmis_churn" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Churn.write_jsonl oc stream;
      close_out oc;
      let m =
        Maintain.create ~config:(strict_config ())
          ~capacity:small_churn.Churn.capacity ()
      in
      let ic = open_in path in
      let stats =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> Serve.run ~file:path m ic)
      in
      Alcotest.(check int) "one batch per marker"
        (List.length stream)
        stats.Serve.batches;
      Alcotest.(check int) "all events parse back"
        (List.fold_left (fun a b -> a + List.length b) 0 stream)
        stats.Serve.events;
      Alcotest.(check int) "nothing malformed" 0 stats.Serve.malformed;
      Alcotest.(check int) "nothing skipped" 0 stats.Serve.skipped)

(* --- golden repair trail ---------------------------------------------- *)

(* A fixed churn stream served under a fixed seed: the final MIS and the
   per-batch (flips, rounds, attempts, |region|, dirty) trail were
   recorded before the adjacency and repair backends changed, and pin
   that every later representation computes the same repairs. *)
let golden_churn =
  { Churn.default with
    Churn.capacity = 128;
    initial = 72;
    batches = 30;
    arrival_mean = 6.;
    flap_mean = 5.;
    radius = 90. }

let serve_trail config =
  let stream = Churn.generate (Splitmix.of_seed 21) golden_churn in
  let m = Maintain.create ~config ~capacity:golden_churn.Churn.capacity () in
  let reports = List.map (Maintain.apply_batch m) stream in
  let mis =
    String.init golden_churn.Churn.capacity (fun u ->
        if Maintain.in_mis m u then '1' else '0')
  in
  (Digest.to_hex (Digest.string mis), reports)

let trail_entry (r : Maintain.report) =
  Printf.sprintf "%d,%d,%d,%d,%d" r.Maintain.flips r.Maintain.rounds
    r.Maintain.attempts
    (Array.length r.Maintain.region_nodes)
    r.Maintain.dirty

let check_golden name ~digest ~trail (got_digest, reports) =
  Alcotest.(check (list string))
    (name ^ ": per-batch trail") trail
    (List.map trail_entry reports);
  Alcotest.(check string) (name ^ ": final MIS digest") digest got_digest

let test_golden_repair_trail () =
  check_golden "radius ladder" ~digest:"839b7225c9e6490e05c8df82a078488b"
    ~trail:
      [ "10,2,1,72,72"; "0,0,1,0,5"; "3,4,1,15,21"; "1,1,1,1,20";
        "2,1,1,2,12"; "2,5,1,15,17"; "1,1,1,1,8"; "5,5,1,15,17";
        "1,1,1,1,7"; "5,4,1,9,12"; "2,1,1,2,14"; "2,1,1,2,5"; "3,2,1,9,12";
        "2,1,1,2,5"; "1,2,1,2,10"; "6,4,1,24,25"; "6,2,1,10,12";
        "0,1,1,1,14"; "4,2,1,22,22"; "4,2,1,18,18"; "4,2,1,15,19";
        "2,1,1,2,11"; "6,4,1,14,23"; "2,2,1,8,18"; "6,4,1,15,17";
        "3,2,1,14,19"; "5,2,1,6,15"; "1,2,1,7,10"; "6,2,1,19,21";
        "3,5,1,12,16"; "0,0,1,0,7" ]
    (serve_trail (strict_config ~seed:5 ()));
  check_golden "full recompute" ~digest:"355472f31b65a9c38b7b2be1a749d878"
    ~trail:
      [ "10,2,1,72,72"; "14,2,1,77,77"; "9,5,1,58,58"; "7,2,1,47,47";
        "7,4,1,43,43"; "8,5,1,35,35"; "7,4,1,34,34"; "7,5,1,30,30";
        "9,5,1,28,28"; "5,4,1,24,24"; "9,4,1,26,26"; "5,4,1,26,26";
        "7,4,1,23,23"; "10,5,1,25,25"; "8,5,1,27,27"; "8,4,1,28,28";
        "9,4,1,29,29"; "6,2,1,31,31"; "7,2,1,29,29"; "5,2,1,25,25";
        "7,2,1,27,27"; "9,4,1,26,26"; "7,4,1,32,32"; "7,4,1,32,32";
        "7,4,1,29,29"; "9,2,1,25,25"; "9,4,1,34,34"; "8,4,1,34,34";
        "8,2,1,29,29"; "3,5,1,27,27"; "7,2,1,33,33" ]
    (serve_trail
       { (strict_config ~seed:5 ()) with
         Maintain.ladder = [ Maintain.Full_recompute ] })

let suite =
  [ ( "dyn.event",
      [ Alcotest.test_case "wire round-trip" `Quick test_event_roundtrip;
        Alcotest.test_case "rejects malformed events" `Quick
          test_event_rejects ] );
    ( "dyn.graph",
      [ Alcotest.test_case "mutators and slot semantics" `Quick
          test_dyn_graph_ops;
        Alcotest.test_case "snapshot views" `Quick test_dyn_graph_views;
        prop_dyn_graph_model ] );
    ( "dyn.maintain",
      [ Alcotest.test_case "config validation" `Quick test_config_validation;
        Alcotest.test_case "inapplicable events skip and count" `Quick
          test_skip_and_count;
        Alcotest.test_case "repair stays local" `Quick test_locality;
        Alcotest.test_case "timeout escalates the ladder" `Quick
          test_escalation_on_timeout;
        Alcotest.test_case "exhausted ladder raises" `Quick
          test_ladder_exhaustion_raises;
        Alcotest.test_case "golden repair trail" `Quick
          test_golden_repair_trail;
        prop_critpath_backend_agrees;
        prop_luby_alg_run_backends;
        Alcotest.test_case "repair rounds histogram" `Quick
          test_repair_rounds_histogram;
        prop_maintainer_valid_after_any_batch;
        prop_repair_matches_membership_semantics ] );
    ( "dyn.serve",
      [ Alcotest.test_case "markers, malformed lines, positions" `Quick
          test_serve_markers_and_malformed;
        Alcotest.test_case "batch size and EOF flush" `Quick
          test_serve_batch_size_and_eof;
        Alcotest.test_case "percentiles" `Quick test_percentile ] );
    ( "workload.churn",
      [ Alcotest.test_case "deterministic generation" `Quick
          test_churn_deterministic;
        Alcotest.test_case "parameter validation" `Quick test_churn_validate;
        prop_churn_streams_are_clean;
        Alcotest.test_case "jsonl round-trip through serve" `Quick
          test_churn_jsonl_round_trip ] ) ]

(* Tests for the synchronous message-passing simulator. *)

module Graph = Mis_graph.Graph
module View = Mis_graph.View
module Program = Mis_sim.Program
module Runtime = Mis_sim.Runtime
module Node_ctx = Mis_sim.Node_ctx
module Splitmix = Mis_util.Splitmix

let rng_of u = Splitmix.stream 7L [ u ]
let path n = Mis_workload.Trees.path n

(* Every node outputs whether its id is even, after one idle round. *)
let trivial_program : (unit, unit) Program.t =
  { Program.name = "trivial";
    init = (fun _ -> ((), []));
    receive = (fun ctx () _ -> (Program.Output (ctx.Node_ctx.id mod 2 = 0), [])) }

let test_trivial () =
  let g = path 4 in
  let outcome = Runtime.run ~rng_of (View.full g) trivial_program in
  Alcotest.check Helpers.bool_array "even ids"
    [| true; false; true; false |] outcome.Runtime.output;
  Alcotest.(check int) "one round" 1 outcome.Runtime.rounds;
  Alcotest.(check bool) "all decided" true
    (Array.for_all (fun b -> b) outcome.Runtime.decided)

(* Flood-max: after diameter rounds everyone knows the max id. *)
type flood_state = { best : int; left : int }

let flood_program rounds : (flood_state, int) Program.t =
  { Program.name = "flood";
    init =
      (fun ctx -> ({ best = ctx.Node_ctx.id; left = rounds },
                   [ Program.Broadcast ctx.Node_ctx.id ]));
    receive =
      (fun _ st inbox ->
        let best = List.fold_left (fun acc (_, v) -> max acc v) st.best inbox in
        if st.left <= 1 then (Program.Output (best = 9), [])
        else
          (Program.Continue { best; left = st.left - 1 },
           [ Program.Broadcast best ])) }

let test_flood_max () =
  let g = path 10 in
  let outcome = Runtime.run ~rng_of (View.full g) (flood_program 9) in
  Alcotest.(check bool) "all found the max" true
    (Array.for_all (fun b -> b) outcome.Runtime.output);
  Alcotest.(check int) "rounds" 9 outcome.Runtime.rounds

let test_flood_insufficient_rounds () =
  let g = path 10 in
  let outcome = Runtime.run ~rng_of (View.full g) (flood_program 3) in
  (* Node 0 is 9 hops from node 9: it cannot have heard the max. *)
  Alcotest.(check bool) "node 0 missed the max" false outcome.Runtime.output.(0);
  Alcotest.(check bool) "node 8 heard it" true outcome.Runtime.output.(8)

let test_message_count () =
  let g = path 4 in
  let outcome = Runtime.run ~rng_of (View.full g) (flood_program 2) in
  (* Round 0 and round 1 sends: each is one broadcast per node = 2m point
     to point messages = 6; total 12. *)
  Alcotest.(check int) "messages" 12 outcome.Runtime.messages

let test_message_size_accounting () =
  let g = path 4 in
  let outcome =
    Runtime.run ~rng_of ~size_bits:(fun v -> if v > 1 then 62 else 1)
      (View.full g) (flood_program 2)
  in
  Alcotest.(check int) "max bits" 62 outcome.Runtime.max_message_bits

let test_custom_ids () =
  let g = path 3 in
  let outcome =
    Runtime.run ~rng_of ~ids:[| 10; 11; 13 |] (View.full g) trivial_program
  in
  Alcotest.check Helpers.bool_array "ids respected" [| true; false; false |]
    outcome.Runtime.output

let test_duplicate_ids_rejected () =
  let g = path 3 in
  Alcotest.check_raises "duplicates" (Invalid_argument "Runtime.run: duplicate ids")
    (fun () ->
      ignore (Runtime.run ~rng_of ~ids:[| 1; 1; 2 |] (View.full g) trivial_program))

(* FairTree reads a negative lead as "no leader", so a negative id would
   silently hand the fair stages' decisions to the Luby fallback. *)
let test_negative_ids_rejected () =
  let g = path 3 in
  Alcotest.check_raises "negative"
    (Invalid_argument "Runtime.run: negative id -2 at node 1") (fun () ->
      ignore
        (Runtime.run ~rng_of ~ids:[| 1; -2; 3 |] (View.full g) trivial_program));
  Alcotest.check_raises "kernel too"
    (Invalid_argument "Runtime.run: negative id -1 at node 0") (fun () ->
      ignore (Mis_sim.Kernel.create ~ids:[| -1; 0; 1 |] (View.full g)))

let send_to_stranger : (unit, unit) Program.t =
  { Program.name = "stranger";
    init = (fun _ -> ((), []));
    receive = (fun _ () _ -> (Program.Output true, [ Program.Send (99, ()) ])) }

let test_send_to_non_neighbor_rejected () =
  let g = path 3 in
  Alcotest.(check bool) "raises" true
    (match Runtime.run ~rng_of (View.full g) send_to_stranger with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* Unicast replies: node sends its id to its largest-id neighbor only. *)
type uni_state = { got : int list; step : int }

let unicast_program : (uni_state, int) Program.t =
  { Program.name = "unicast";
    init =
      (fun ctx ->
        let st = { got = []; step = 0 } in
        let target = Array.fold_left max (-1) ctx.Node_ctx.neighbor_ids in
        ((match target with
         | -1 -> (st, [])
         | t -> (st, [ Program.Send (t, ctx.Node_ctx.id) ]))
        : uni_state * int Program.action list));
    receive =
      (fun _ st inbox ->
        let got = List.map snd inbox @ st.got in
        (Program.Output (List.length got > 0), [])) }

let test_unicast () =
  let g = path 3 in
  let outcome = Runtime.run ~rng_of (View.full g) unicast_program in
  (* 0 sends to 1, 1 sends to 2, 2 sends to 1: nodes 1, 2 receive. *)
  Alcotest.check Helpers.bool_array "receivers" [| false; true; true |]
    outcome.Runtime.output

let test_masked_view () =
  (* Nodes outside the view do not run. *)
  let g = path 4 in
  let v = View.induced g [| true; true; false; true |] in
  let outcome = Runtime.run ~rng_of v (flood_program 3) in
  Alcotest.(check bool) "inactive node undecided" false outcome.Runtime.decided.(2);
  (* In the masked graph, max id visible from 0 is 1 (not 9/3). *)
  Alcotest.(check bool) "component max only" false outcome.Runtime.output.(0)

let test_max_rounds_cutoff () =
  let forever : (unit, unit) Program.t =
    { Program.name = "forever";
      init = (fun _ -> ((), []));
      receive = (fun _ () _ -> (Program.Continue (), [])) }
  in
  let g = path 3 in
  let outcome = Runtime.run ~rng_of ~max_rounds:5 (View.full g) forever in
  Alcotest.(check int) "cut off" 5 outcome.Runtime.rounds;
  Alcotest.(check bool) "undecided" false outcome.Runtime.decided.(0)

let test_max_rounds_outcome_well_formed () =
  (* Nodes 0 and 1 decide in round 1; node 2 never does. Truncation must
     report the undecided node with [decided = false], keep its output at
     the default, and leave every accounting field consistent. *)
  let stubborn : (unit, unit) Program.t =
    { Program.name = "stubborn";
      init = (fun _ -> ((), [ Program.Broadcast () ]));
      receive =
        (fun ctx () _ ->
          if ctx.Node_ctx.id < 2 then (Program.Output true, [])
          else (Program.Continue (), [ Program.Broadcast () ])) }
  in
  let g = path 3 in
  let outcome = Runtime.run ~rng_of ~max_rounds:7 (View.full g) stubborn in
  Alcotest.(check int) "truncated" 7 outcome.Runtime.rounds;
  Alcotest.check Helpers.bool_array "who decided" [| true; true; false |]
    outcome.Runtime.decided;
  Alcotest.check Helpers.bool_array "undecided output stays default"
    [| true; true; false |] outcome.Runtime.output;
  Alcotest.(check int) "array sizes" 3 (Array.length outcome.Runtime.crashed);
  Alcotest.(check bool) "no crashes on a perfect network" false
    (Array.exists (fun b -> b) outcome.Runtime.crashed);
  Alcotest.(check int) "no drops" 0 outcome.Runtime.dropped;
  Alcotest.(check int) "no delays" 0 outcome.Runtime.delayed;
  (* Deliveries: round 0 all 4 arcs; rounds 1..6 node 2 keeps sending to a
     decided node 1 (delivered but unread). *)
  Alcotest.(check bool) "message count positive and finite" true
    (outcome.Runtime.messages > 0)

let test_halted_receive_nothing () =
  (* A node that outputs stops receiving: its neighbor's later messages are
     dropped, which we observe via message counts. *)
  let early : (int, unit) Program.t =
    { Program.name = "early";
      init = (fun _ -> (0, []));
      receive =
        (fun ctx step _ ->
          if ctx.Node_ctx.id = 0 then (Program.Output true, [])
          else if step < 3 then (Program.Continue (step + 1), [ Program.Broadcast () ])
          else (Program.Output false, [])) }
  in
  let g = path 2 in
  let outcome = Runtime.run ~rng_of (View.full g) early in
  (* Node 1 broadcasts in rounds 1..3, but node 0 halts after round 1, so
     only the round-1 message (delivered round 2 to a halted node = dropped).
     Total delivered: zero (round-0 has no sends). *)
  Alcotest.(check int) "deliveries" 0 outcome.Runtime.messages

(* FIFO delivery contract: a node's inbox lists messages in send order —
   senders in active order, and one sender's messages in the order they
   were performed. The center of a 3-path hears 0's three messages (two
   unicasts around a broadcast) before 2's three. *)
let fifo_senders_program orders : (unit, int) Program.t =
  { Program.name = "fifo";
    init =
      (fun ctx ->
        let me = ctx.Node_ctx.id in
        ( (),
          if me = 1 then []
          else
            [ Program.Send (1, 10 * me);
              Program.Broadcast ((10 * me) + 1);
              Program.Send (1, (10 * me) + 2) ] ));
    receive =
      (fun ctx () inbox ->
        if ctx.Node_ctx.id = 1 && inbox <> [] then orders := inbox :: !orders;
        (Program.Output true, [])) }

let check_fifo_order name run =
  let orders = ref [] in
  let o = run (fifo_senders_program orders) in
  Alcotest.(check int) (name ^ ": messages") 6 o.Runtime.messages;
  Alcotest.(check bool)
    (name ^ ": inbox in send order") true
    (!orders = [ [ (0, 0); (0, 1); (0, 2); (2, 20); (2, 21); (2, 22) ] ])

let test_fifo_delivery_order () =
  let view = View.full (path 3) in
  check_fifo_order "perfect" (fun p -> Runtime.run ~rng_of view p);
  (* A plan with a constant-zero drop function takes the faulty delivery
     path (seq counters, delay rolls) without ever dropping or delaying:
     the arrival order must be the same FIFO order. *)
  let faults =
    Mis_sim.Fault.create ~edge_drop:(fun ~src:_ ~dst:_ -> 0.) ()
  in
  check_fifo_order "faulty path" (fun p -> Runtime.run ~faults ~rng_of view p)

(* Multi-round FIFO: one sender unicasts two distinguishable messages per
   round; the receiver must see them in send order every round, on the
   perfect and the (zero-effect) faulty path. *)
let fifo_stream_program log : (int, int) Program.t =
  { Program.name = "fifo_stream";
    init =
      (fun ctx ->
        ( 0,
          if ctx.Node_ctx.id = 0 then [ Program.Send (1, 0); Program.Send (1, 1) ]
          else [] ));
    receive =
      (fun ctx r inbox ->
        if ctx.Node_ctx.id = 1 && inbox <> [] then
          log := List.map snd inbox :: !log;
        if r >= 2 then (Program.Output true, [])
        else if ctx.Node_ctx.id = 0 then
          ( Program.Continue (r + 1),
            [ Program.Send (1, 2 * (r + 1)); Program.Send (1, (2 * (r + 1)) + 1) ]
          )
        else (Program.Continue (r + 1), [])) }

let test_fifo_multi_round () =
  let check name faults =
    let log = ref [] in
    ignore
      (Runtime.run ?faults ~rng_of (View.full (path 2))
         (fifo_stream_program log));
    Alcotest.(check bool)
      (name ^ ": per-round send order") true
      (List.rev !log = [ [ 0; 1 ]; [ 2; 3 ]; [ 4; 5 ] ])
  in
  check "perfect" None;
  check "faulty path"
    (Some (Mis_sim.Fault.create ~edge_drop:(fun ~src:_ ~dst:_ -> 0.) ()))

let suite =
  [ ( "sim.runtime",
      [ Alcotest.test_case "trivial program" `Quick test_trivial;
        Alcotest.test_case "flood max" `Quick test_flood_max;
        Alcotest.test_case "flood with insufficient rounds" `Quick
          test_flood_insufficient_rounds;
        Alcotest.test_case "message count" `Quick test_message_count;
        Alcotest.test_case "message size accounting" `Quick
          test_message_size_accounting;
        Alcotest.test_case "custom ids" `Quick test_custom_ids;
        Alcotest.test_case "duplicate ids rejected" `Quick
          test_duplicate_ids_rejected;
        Alcotest.test_case "negative ids rejected" `Quick
          test_negative_ids_rejected;
        Alcotest.test_case "send to non-neighbor rejected" `Quick
          test_send_to_non_neighbor_rejected;
        Alcotest.test_case "unicast" `Quick test_unicast;
        Alcotest.test_case "masked view" `Quick test_masked_view;
        Alcotest.test_case "max rounds cutoff" `Quick test_max_rounds_cutoff;
        Alcotest.test_case "max rounds outcome well-formed" `Quick
          test_max_rounds_outcome_well_formed;
        Alcotest.test_case "halted nodes drop messages" `Quick
          test_halted_receive_nothing;
        Alcotest.test_case "fifo delivery order" `Quick
          test_fifo_delivery_order;
        Alcotest.test_case "fifo across rounds" `Quick test_fifo_multi_round ]
    ) ]

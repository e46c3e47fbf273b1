(* Properties of the keyed randomness plan — the foundation of both the
   reproducibility story and the fast/distributed equivalences. *)

module Rand_plan = Fairmis.Rand_plan

let test_determinism () =
  let p1 = Rand_plan.make 42 and p2 = Rand_plan.make 42 in
  for node = 0 to 50 do
    Alcotest.(check bool) "node_bit deterministic"
      (Rand_plan.node_bit p1 ~stage:3 ~node)
      (Rand_plan.node_bit p2 ~stage:3 ~node)
  done

let test_seed_changes_everything () =
  let p1 = Rand_plan.make 1 and p2 = Rand_plan.make 2 in
  let same = ref 0 in
  let total = 200 in
  for node = 0 to total - 1 do
    if Rand_plan.node_bit p1 ~stage:1 ~node = Rand_plan.node_bit p2 ~stage:1 ~node
    then incr same
  done;
  (* Roughly half should agree by chance; all agreeing means broken. *)
  Alcotest.(check bool) "seeds differ" true (!same < total - 20 && !same > 20)

let test_edge_bit_symmetry () =
  let p = Rand_plan.make 7 in
  for u = 0 to 20 do
    for v = u + 1 to 20 do
      Alcotest.(check bool) "symmetric"
        (Rand_plan.edge_bit p ~stage:5 ~u ~v)
        (Rand_plan.edge_bit p ~stage:5 ~u:v ~v:u)
    done
  done

let prop_stage_independence =
  Helpers.qtest "rand_plan: different stages give independent bits"
    QCheck.(pair Helpers.arb_seed (pair (int_range 0 100) (int_range 0 100)))
    (fun (seed, (s1, s2)) ->
      QCheck.assume (s1 <> s2);
      let p = Rand_plan.make seed in
      (* Not equality for all nodes: check at least one disagreement over a
         span of nodes (probability of all-agree is 2^-64). *)
      let disagree = ref false in
      for node = 0 to 63 do
        if Rand_plan.node_bit p ~stage:s1 ~node
           <> Rand_plan.node_bit p ~stage:s2 ~node
        then disagree := true
      done;
      !disagree)

let test_node_value_distinct_rounds () =
  let p = Rand_plan.make 3 in
  Alcotest.(check bool) "rounds differ" true
    (Rand_plan.node_value p ~stage:1 ~round:0 ~node:5
    <> Rand_plan.node_value p ~stage:1 ~round:1 ~node:5)

let test_node_int_bounds () =
  let p = Rand_plan.make 11 in
  for node = 0 to 500 do
    let v = Rand_plan.node_int p ~stage:2 ~node ~bound:7 in
    if v < 0 || v >= 7 then Alcotest.failf "out of bounds %d" v
  done

let test_node_radius_bounds () =
  let p = Rand_plan.make 13 in
  for node = 0 to 500 do
    let r = Rand_plan.node_radius p ~stage:2 ~node ~p:0.5 ~gamma:6 in
    if r < 0 || r > 6 then Alcotest.failf "radius out of bounds %d" r
  done

let test_bit_balance () =
  let p = Rand_plan.make 17 in
  let ones = ref 0 in
  let total = 20_000 in
  for node = 0 to total - 1 do
    if Rand_plan.node_bit p ~stage:9 ~node then incr ones
  done;
  let ratio = float_of_int !ones /. float_of_int total in
  if abs_float (ratio -. 0.5) > 0.02 then Alcotest.failf "biased bits: %f" ratio

let test_node_stream_independent_of_bits () =
  (* Drawing from a node's stream must not perturb keyed lookups. *)
  let p = Rand_plan.make 23 in
  let before = Rand_plan.node_bit p ~stage:4 ~node:9 in
  let s = Rand_plan.node_stream p ~stage:4 ~node:9 in
  ignore (Mis_util.Splitmix.bits62 s);
  Alcotest.(check bool) "unperturbed" before (Rand_plan.node_bit p ~stage:4 ~node:9)

(* The allocation-free draws against the list-based derivation they
   replaced, which stays in [Splitmix] as the reference: same bits for
   every key, including negative and near-[max_int] ints and [u > v]. *)
module Reference = struct
  module Splitmix = Mis_util.Splitmix

  let stream seed keys =
    Splitmix.stream (Splitmix.derive (Int64.of_int seed) [ 0x5EED ]) keys

  let node_bit seed ~stage ~node = Splitmix.bool (stream seed [ stage; 1; node ])

  let edge_bit seed ~stage ~u ~v =
    Splitmix.bool (stream seed [ stage; 2; min u v; max u v ])

  let node_value seed ~stage ~round ~node =
    Splitmix.bits62 (stream seed [ stage; 3; round; node ])

  let node_int seed ~stage ~node ~bound =
    Splitmix.int (stream seed [ stage; 4; node ]) bound

  let node_radius seed ~stage ~node =
    Splitmix.geometric_truncated (stream seed [ stage; 5; node ]) ~p:0.5 ~gamma:9

  let node_stream seed ~stage ~node = stream seed [ stage; 6; node ]
end

let arb_key =
  QCheck.oneof
    [ QCheck.small_signed_int; QCheck.int;
      QCheck.int_range (max_int - 1000) max_int;
      QCheck.int_range min_int (min_int + 1000) ]

let prop_same_bits_as_derive =
  Helpers.qtest ~count:500 "rand_plan: keyed draws = Splitmix.derive reference"
    QCheck.(pair (pair arb_key arb_key) (pair (pair arb_key arb_key) arb_key))
    (fun ((seed, stage), ((u, v), round)) ->
      let p = Rand_plan.make seed in
      let stream_bits s = List.init 4 (fun _ -> Mis_util.Splitmix.bits62 s) in
      Rand_plan.node_bit p ~stage ~node:u = Reference.node_bit seed ~stage ~node:u
      && Rand_plan.edge_bit p ~stage ~u ~v = Reference.edge_bit seed ~stage ~u ~v
      && Rand_plan.edge_bit p ~stage ~u:v ~v:u = Reference.edge_bit seed ~stage ~u ~v
      && Rand_plan.node_value p ~stage ~round ~node:v
         = Reference.node_value seed ~stage ~round ~node:v
      && Rand_plan.node_int p ~stage ~node:u ~bound:1000
         = Reference.node_int seed ~stage ~node:u ~bound:1000
      && Rand_plan.node_radius p ~stage ~node:v ~p:0.5 ~gamma:9
         = Reference.node_radius seed ~stage ~node:v
      && stream_bits (Rand_plan.node_stream p ~stage ~node:u)
         = stream_bits (Reference.node_stream seed ~stage ~node:u))

(* The hoisted drawers against the keyed draws: the same bits for every
   argument, the edge drawer in both argument orders. One drawer per
   (plan, stage) serves several draws, the way the kernel uses them. *)
let prop_drawers_same_bits =
  Helpers.qtest ~count:500 "rand_plan: hoisted drawers = keyed draws"
    QCheck.(pair (pair arb_key arb_key) (pair (pair arb_key arb_key) arb_key))
    (fun ((seed, stage), ((u, v), round)) ->
      let p = Rand_plan.make seed in
      let bits = Rand_plan.node_bits p ~stage in
      let edges = Rand_plan.edge_bits p ~stage in
      let values = Rand_plan.node_values p ~stage in
      List.for_all
        (fun (u, v) ->
          edges ~u ~v = Rand_plan.edge_bit p ~stage ~u ~v
          && edges ~u:v ~v:u = Rand_plan.edge_bit p ~stage ~u ~v
          && bits u = Rand_plan.node_bit p ~stage ~node:u
          && values ~round ~id:v = Rand_plan.node_value p ~stage ~round ~node:v)
        [ (u, v); (v, u); (u + 1, v - 1) ])

let suite =
  [ ( "core.rand_plan",
      [ Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "seed sensitivity" `Quick test_seed_changes_everything;
        Alcotest.test_case "edge bit symmetry" `Quick test_edge_bit_symmetry;
        prop_stage_independence;
        Alcotest.test_case "distinct rounds" `Quick test_node_value_distinct_rounds;
        Alcotest.test_case "node int bounds" `Quick test_node_int_bounds;
        Alcotest.test_case "node radius bounds" `Quick test_node_radius_bounds;
        Alcotest.test_case "bit balance" `Quick test_bit_balance;
        Alcotest.test_case "streams don't perturb lookups" `Quick
          test_node_stream_independent_of_bits;
        prop_same_bits_as_derive;
        prop_drawers_same_bits ] ) ]

(* Backend equivalence: the data-parallel [Mis_sim.Kernel] sweeps must be
   bit-identical to the message engine — same outputs, same decided set,
   same per-node decision round (recovered from the traced Decide
   events), same [rounds] total — across topologies, seeds, and reused
   kernels/engines. Also pins kernel Luby against a list-based
   centralized implementation, the oracle the whole chain hangs off. *)

module View = Mis_graph.View
module Runtime = Mis_sim.Runtime
module Kernel = Mis_sim.Kernel
module Csr = Mis_sim.Csr
module Trace = Mis_obs.Trace
module Trials = Mis_exp.Trials
module Rand_plan = Fairmis.Rand_plan

(* Graph kinds 0-3 are full views (tree, G(n,p), bipartite grid, WAP);
   4 is the cone (a clique with a pendant apex, Sec. II); 5 and 6 are
   masked views — a node-induced subtree and an edge-restricted random
   graph — so non-contiguous slot maps are on the line too. *)
let view_of gk ~n ~gseed =
  let coin_mask len salt =
    let rng = Mis_util.Splitmix.of_seed (gseed + salt) in
    Array.init len (fun _ -> Mis_util.Splitmix.float rng < 0.7)
  in
  match gk with
  | 0 -> View.full (Helpers.random_tree ~seed:gseed ~n)
  | 1 -> View.full (Helpers.random_graph ~seed:gseed ~n ~p:0.2)
  | 2 ->
    View.full (Mis_workload.Bipartite.grid ~width:4 ~height:(max 1 (n / 4)))
  | 3 -> View.full (Mis_workload.Real_world.dartmouth_like ~seed:gseed)
  | 4 -> View.full (Mis_workload.Special.cone ~k:(max 1 (n / 3)))
  | 5 -> View.induced (Helpers.random_tree ~seed:gseed ~n) (coin_mask n 17)
  | _ ->
    let g = Helpers.random_graph ~seed:gseed ~n ~p:0.2 in
    View.restrict ~edges:(coin_mask (Mis_graph.Graph.m g) 29) g

(* Per-node decision rounds from a traced message run. *)
let decide_rounds ~n events =
  let dr = Array.make n (-1) in
  List.iter
    (fun ev ->
      match ev with
      | Trace.Decide { round; node; _ } -> dr.(node) <- round
      | _ -> ())
    events;
  dr

let outcome_matches ~name view (o : Runtime.outcome) events
    (k : Kernel.outcome) =
  let n = View.n view in
  o.Runtime.output = k.Kernel.output
  && o.Runtime.decided = k.Kernel.decided
  && o.Runtime.rounds = k.Kernel.rounds
  && decide_rounds ~n events = k.Kernel.decide_round
  && (Fairmis.Mis.verify ~name view k.Kernel.output;
      true)

let arb_case =
  QCheck.make
    ~print:(fun (gk, n, gseed, pseed) ->
      Printf.sprintf "graph=%d n=%d gseed=%d pseed=%d" gk n gseed pseed)
    QCheck.Gen.(
      quad (int_range 0 6) (int_range 4 24) (int_range 0 1000)
        (int_range 0 1000))

(* Caller-supplied ids: an injective, increasing pick from a universe a
   few times larger than the view, the way a repair region names its
   nodes by their global slot numbers. Coins are keyed by id, so both
   backends must draw them through the same map. *)
let sparse_ids ~n ~seed =
  let rng = Mis_util.Splitmix.of_seed (seed + 101) in
  let next = ref (Mis_util.Splitmix.int rng 50) in
  Array.init n (fun _ ->
      let id = !next in
      next := id + 1 + Mis_util.Splitmix.int rng 4;
      id)

(* The sparse ids in shuffled order, so id order and slot order differ:
   a per-slot id table built from the wrong index (the slot instead of
   [active.(slot)] on a masked view) or sorted by id shows here. *)
let permuted_ids ~n ~seed =
  let ids = sparse_ids ~n ~seed in
  let rng = Mis_util.Splitmix.of_seed (seed + 211) in
  for i = n - 1 downto 1 do
    let j = Mis_util.Splitmix.int rng (i + 1) in
    let t = ids.(i) in
    ids.(i) <- ids.(j);
    ids.(j) <- t
  done;
  ids

(* Each case runs under the default (index) ids, under sparse ids and
   under permuted sparse ids. One kernel value serves every seed in
   sequence: scratch reset between runs is on the line, exactly like
   engine reuse. With [~relabel] the kernel runs over [Kernel.relabel]
   of the engine's compile, the BFS slot order large kernels take, so
   the properties reach it at QCheck sizes. *)
let for_all_ids ~relabel view ~pseed check =
  let n = View.n view in
  List.for_all
    (fun ids ->
      let csr = Csr.compile ?ids view in
      let kcsr = if relabel then Kernel.relabel csr else csr in
      check (Kernel.of_csr kcsr) (Runtime.Engine.of_csr csr))
    [ None; Some (sparse_ids ~n ~seed:pseed);
      Some (permuted_ids ~n ~seed:pseed) ]

let prop_kernel_luby ~relabel (gk, n, gseed, pseed) =
  let view = view_of gk ~n ~gseed in
  for_all_ids ~relabel view ~pseed (fun kernel engine ->
      List.for_all
        (fun seed ->
          let plan = Rand_plan.make seed in
          let sink, evs = Trace.memory () in
          let o = Fairmis.Luby.run_distributed_on ~tracer:sink engine plan in
          let k = Fairmis.Luby.run_kernel_on kernel plan in
          outcome_matches ~name:"kernel-luby" view o (evs ()) k)
        [ pseed; pseed + 1; pseed + 2 ])

let prop_kernel_fair_tree ~relabel (gk, n, gseed, pseed) =
  let view = view_of gk ~n ~gseed in
  for_all_ids ~relabel view ~pseed (fun kernel engine ->
      List.for_all
        (fun seed ->
          let plan = Rand_plan.make seed in
          let sink, evs = Trace.memory () in
          let o =
            Fairmis.Fair_tree_distributed.run_on ~tracer:sink engine plan
          in
          let k = Fairmis.Fair_tree_distributed.run_kernel_on kernel plan in
          outcome_matches ~name:"kernel-fairtree" view o (evs ()) k)
        [ pseed; pseed + 1 ])

(* [Kernel.relabel] permutes slots and nothing else: [active] is a
   permutation of the input's with [slot] its inverse, the view and ids
   are the input's, every node keeps its neighbors in row order, and the
   order is a BFS — a slot without an earlier neighbor starts a
   component, and the earliest neighbor (the BFS parent) never decreases
   along the order. *)
let prop_relabel_structure (gk, n, gseed, pseed) =
  let view = view_of gk ~n ~gseed in
  let sorted a =
    let a = Array.copy a in
    Array.sort compare a;
    a
  in
  (* Node [u]'s neighbors as node indices, in row order. *)
  let row (x : Csr.t) u =
    let s = x.slot.(u) in
    List.init (Csr.deg x s) (fun j -> x.active.(x.adj_slot.(x.adj_off.(s) + j)))
  in
  let is_bfs (r : Csr.t) =
    let ok = ref true and last = ref (-1) in
    for i = 0 to Csr.nslots r - 1 do
      let p = ref i in
      for k = r.adj_off.(i) to r.adj_off.(i + 1) - 1 do
        p := min !p r.adj_slot.(k)
      done;
      if !p < i then begin
        if !p < !last then ok := false;
        last := !p
      end
    done;
    !ok
  in
  let relabels (c : Csr.t) =
    let r = Kernel.relabel c in
    Csr.view r == view && r.ids == c.ids && r.n = c.n
    && sorted r.active = sorted c.active
    && Array.for_all (fun u -> r.active.(r.slot.(u)) = u) c.active
    && Array.for_all2 (fun a b -> (a < 0) = (b < 0)) r.slot c.slot
    && Array.for_all (fun u -> row r u = row c u) c.active
    && is_bfs r
  in
  (* Relabelling a relabelled compile takes the path for slots that are
     not node indices even on a full view. *)
  List.for_all
    (fun ids ->
      let c = Csr.compile ?ids view in
      relabels c && relabels (Kernel.relabel c))
    [ None; Some (permuted_ids ~n:(View.n view) ~seed:pseed) ]

(* Sparse ids must change the coins: otherwise the properties above
   would hold without the id map reaching the draws. *)
let test_sparse_ids_reach_the_coins () =
  let view = View.full (Helpers.random_tree ~seed:3 ~n:40) in
  let ids = sparse_ids ~n:40 ~seed:7 in
  let plan = Rand_plan.make 11 in
  let run ?ids () =
    (Fairmis.Luby.run_kernel_on (Kernel.create ?ids view) plan).Kernel.output
  in
  Alcotest.(check bool) "sparse ids draw other coins" false
    (run () = run ~ids ())

(* A tiny gamma keeps the floods unconverged on larger graphs, forcing
   the cutoff/partial-propagation paths to agree too. *)
let prop_kernel_fair_tree_small_gamma (gk, n, gseed, pseed) =
  let view = view_of gk ~n ~gseed in
  let plan = Rand_plan.make pseed in
  List.for_all
    (fun gamma ->
      let sink, evs = Trace.memory () in
      let o = Fairmis.Fair_tree_distributed.run ~gamma ~tracer:sink view plan in
      let k = Fairmis.Fair_tree_distributed.run_kernel ~gamma view plan in
      let n = View.n view in
      o.Runtime.output = k.Kernel.output
      && o.Runtime.decided = k.Kernel.decided
      && o.Runtime.rounds = k.Kernel.rounds
      && decide_rounds ~n (evs ()) = k.Kernel.decide_round)
    [ 1; 2 ]

(* The engine's max_rounds cutoff semantics: decisions past the cutoff
   don't happen and [rounds = max_rounds] is reported. *)
let prop_kernel_luby_cutoff (gk, n, gseed, pseed) =
  let view = view_of gk ~n ~gseed in
  let plan = Rand_plan.make pseed in
  let nv = View.n view in
  List.for_all
    (fun max_rounds ->
      let sink, evs = Trace.memory () in
      let prog = Fairmis.Luby.program plan ~stage:Fairmis.Rand_plan.Stage.luby_main in
      let o =
        Runtime.run ~max_rounds ~tracer:sink
          ~rng_of:(fun u ->
            Rand_plan.node_stream plan ~stage:Fairmis.Rand_plan.Stage.luby_main
              ~node:u)
          view prog
      in
      let k =
        Kernel.luby ~max_rounds
          ~value_of:(fun ~round ~id ->
            Rand_plan.node_value plan
              ~stage:Fairmis.Rand_plan.Stage.luby_main ~round ~node:id)
          (Kernel.create view)
      in
      o.Runtime.output = k.Kernel.output
      && o.Runtime.decided = k.Kernel.decided
      && o.Runtime.rounds = k.Kernel.rounds
      && decide_rounds ~n:nv (evs ()) = k.Kernel.decide_round)
    [ 0; 1; 2; 3; 4; 7 ]

(* The Backend facade: both backends produce the same backend-neutral
   outcome for both programs. *)
let prop_backend_facade (gk, n, gseed, pseed) =
  let view = view_of gk ~n ~gseed in
  let plan = Rand_plan.make pseed in
  List.for_all
    (fun key ->
      let run b =
        match Fairmis.Backend.exec_of_name b view key with
        | Some exec -> exec plan
        | None -> Alcotest.fail ("unsupported key " ^ key)
      in
      run Fairmis.Backend.Message = run Fairmis.Backend.Kernel)
    Fairmis.Backend.supported

(* Kernel Luby, through [Luby.fallback] (the path FairBipart and ColorMIS
   take, phases derived from the kernel's rounds), must match the
   centralized list-based Luby exactly: same MIS, same phase count. *)
let luby_list_oracle ?(stage = Fairmis.Rand_plan.Stage.luby_main) view
    plan =
  let n = View.n view in
  let in_mis = Array.make n false in
  let alive = Array.make n false in
  View.iter_active view (fun u -> alive.(u) <- true);
  let live = ref (View.active_nodes view) in
  let value = Array.make n 0 in
  let phase = ref 0 in
  let beats (v1, id1) (v2, id2) = v1 < v2 || (v1 = v2 && id1 < id2) in
  while Array.length !live > 0 do
    let nodes = !live in
    Array.iter
      (fun u ->
        value.(u) <- Rand_plan.node_value plan ~stage ~round:!phase ~node:u)
      nodes;
    let winners =
      Array.to_list nodes
      |> List.filter (fun u ->
             let mine = (value.(u), u) in
             let beaten = ref false in
             View.iter_adj view u (fun w ->
                 if alive.(w) && not (beats mine (value.(w), w)) then
                   beaten := true);
             not !beaten)
    in
    List.iter
      (fun u ->
        in_mis.(u) <- true;
        alive.(u) <- false;
        View.iter_adj view u (fun w -> alive.(w) <- false))
      winners;
    live :=
      Array.of_list (List.filter (fun u -> alive.(u)) (Array.to_list nodes));
    incr phase
  done;
  (in_mis, !phase)

let kernel_matches_oracle view plan =
  let nodes = Array.init (View.n view) (View.node_active view) in
  let mis, phases =
    Fairmis.Luby.fallback ~stage:Fairmis.Rand_plan.Stage.luby_main view
      ~nodes plan
  in
  (mis, phases) = luby_list_oracle view plan

let prop_kernel_luby_oracle (gk, n, gseed, pseed) =
  kernel_matches_oracle (view_of gk ~n ~gseed) (Rand_plan.make pseed)

(* On a masked view the frontier starts from the active subset,
   exercising the non-contiguous slot map. *)
let prop_kernel_luby_oracle_masked (gk, n, gseed, pseed) =
  let g =
    match gk with
    | 0 -> Helpers.random_tree ~seed:gseed ~n
    | _ -> Helpers.random_graph ~seed:gseed ~n ~p:0.2
  in
  let rng = Mis_util.Splitmix.of_seed (pseed + 17) in
  let keep = Array.init n (fun _ -> Mis_util.Splitmix.float rng < 0.7) in
  kernel_matches_oracle (View.induced g keep) (Rand_plan.make pseed)

(* Kernel through the Trials front end at 1 and 4 domains: per-chunk
   kernels must reproduce the message-backend joins exactly. *)
let test_trials_kernel_domain_invariant () =
  let n = 60 in
  let view = View.full (Helpers.random_tree ~seed:9 ~n) in
  let joins_of backend domains =
    let spec = { Trials.trials = 48; seed = 5; domains = Some domains } in
    let b =
      match Mis_exp.Runners.backed backend "luby" with
      | Some b -> b
      | None -> Alcotest.fail "luby runner missing"
    in
    Mis_obs.Fairness.joins
      (Trials.fairness_runner spec ~n (b.Mis_exp.Runners.b_prepare view))
  in
  let reference = joins_of Fairmis.Backend.Message 1 in
  Alcotest.check Helpers.int_array "kernel(1) = message" reference
    (joins_of Fairmis.Backend.Kernel 1);
  Alcotest.check Helpers.int_array "kernel(4) = message" reference
    (joins_of Fairmis.Backend.Kernel 4)

(* measure through both backends agrees with the legacy centralized
   measure (same per-node estimates). *)
let test_measure_backed_matches () =
  let cfg =
    { Mis_exp.Config.trials = 32; seed = 3; domains = Some 2;
      nyc = Mis_exp.Config.Nyc_skip; full = false }
  in
  let view = View.full (Helpers.random_tree ~seed:4 ~n:40) in
  let legacy = Mis_exp.Runners.measure cfg view Mis_exp.Runners.luby in
  List.iter
    (fun backend ->
      let b =
        match Mis_exp.Runners.backed backend "luby" with
        | Some b -> b
        | None -> Alcotest.fail "luby runner missing"
      in
      let est = Mis_exp.Runners.measure_backed cfg view b in
      Alcotest.(check bool)
        ("frequencies " ^ Fairmis.Backend.to_string backend)
        true
        (Mis_stats.Empirical.frequencies legacy
        = Mis_stats.Empirical.frequencies est))
    Fairmis.Backend.all

let suite =
  [ ( "sim.kernel",
      [ Helpers.qtest ~count:60 "kernel = engine (luby)" arb_case
          (prop_kernel_luby ~relabel:false);
        Helpers.qtest ~count:30 "kernel = engine (fairtree)" arb_case
          (prop_kernel_fair_tree ~relabel:false);
        Helpers.qtest ~count:40 "relabelled kernel = engine (luby)" arb_case
          (prop_kernel_luby ~relabel:true);
        Helpers.qtest ~count:30 "relabelled kernel = engine (fairtree)"
          arb_case
          (prop_kernel_fair_tree ~relabel:true);
        Helpers.qtest ~count:60 "relabel permutes slots in BFS order" arb_case
          prop_relabel_structure;
        Helpers.qtest ~count:20 "kernel = engine (fairtree, small gamma)"
          arb_case prop_kernel_fair_tree_small_gamma;
        Helpers.qtest ~count:30 "kernel = engine (luby, max_rounds cutoff)"
          arb_case prop_kernel_luby_cutoff;
        Helpers.qtest ~count:40 "backend facade agreement" arb_case
          prop_backend_facade;
        Helpers.qtest ~count:60 "kernel luby = list oracle" arb_case
          prop_kernel_luby_oracle;
        Helpers.qtest ~count:40 "kernel luby = list oracle (masked)"
          arb_case prop_kernel_luby_oracle_masked;
        Alcotest.test_case "sparse ids reach the coins" `Quick
          test_sparse_ids_reach_the_coins;
        Alcotest.test_case "trials kernel joins, domains 1 and 4" `Quick
          test_trials_kernel_domain_invariant;
        Alcotest.test_case "measure on both backends" `Quick
          test_measure_backed_matches ] ) ]

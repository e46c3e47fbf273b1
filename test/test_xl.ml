(* engine/xl smoke: the compiled engine at n = 10^5 — the scale tier the
   worker pool and the direct-CSR topology constructors exist for.
   kernel.xl runs the kernel at 10^5 (below its relabel cutoff), at
   3 * 10^5 (above it: equivalence with the engine and a live-words
   ceiling) and at 10^6 (golden digests).

   Gated behind FAIRMIS_XL=1 (CI sets it; a plain `dune runtest` skips
   in microseconds) because each case runs a six-figure-node protocol
   end to end. Marked `Slow for the same reason. *)

module Graph = Mis_graph.Graph
module View = Mis_graph.View
module Trace = Mis_obs.Trace
module Runtime = Mis_sim.Runtime
module Splitmix = Mis_util.Splitmix

let xl_on = Sys.getenv_opt "FAIRMIS_XL" = Some "1"
let require_xl () = if not xl_on then Alcotest.skip ()
let n_xl = 100_000

let build_graph () = Mis_workload.Trees.random_attachment_xl (Splitmix.of_seed 97) ~n:n_xl

let test_luby_validity_and_conservation () =
  require_xl ();
  let g = build_graph () in
  let view = View.full g in
  let eng = Runtime.Engine.create view in
  (* A custom sink summing Recv batches: Run_end documents
     messages = in_flight + Σ Recv counts, and with no faults nothing is
     dropped — the books must close exactly even at 10^5 nodes. *)
  let recvd = ref 0 and decides = ref 0 in
  let sink =
    { Trace.emit =
        (fun ev ->
          match ev with
          | Trace.Recv { messages; _ } -> recvd := !recvd + messages
          | Trace.Decide _ -> incr decides
          | _ -> ());
      flush = (fun () -> ()) }
  in
  let o = Fairmis.Luby.run_distributed_on ~tracer:sink eng (Fairmis.Rand_plan.make 5) in
  Alcotest.(check bool) "every node decided" true
    (Array.for_all Fun.id o.Runtime.decided);
  Alcotest.(check int) "one decide event per node" n_xl !decides;
  Helpers.check_mis ~name:"xl luby" view o.Runtime.output;
  Alcotest.(check int) "message conservation: sent = received + in flight"
    o.Runtime.messages
    (!recvd + o.Runtime.in_flight);
  let rs_total =
    Array.fold_left (fun a r -> a + r.Runtime.rs_messages) 0 o.Runtime.round_stats
  in
  Alcotest.(check int) "round stats account every delivery" o.Runtime.messages
    rs_total;
  (* Reusing the engine at this scale stays bit-identical. *)
  let o2 = Fairmis.Luby.run_distributed_on eng (Fairmis.Rand_plan.make 5) in
  Alcotest.check Helpers.bool_array "engine reuse bit-identical"
    o.Runtime.output o2.Runtime.output

let test_live_words_ceiling () =
  require_xl ();
  (* O(n + m) residency, measured: major-heap live words before vs after
     building the topology + engine and running a full protocol. The
     measured footprint is ~42 words per (n+m) on OCaml 5.1, flat from
     n = 10^5 to 10^6 (CSR graph ~8, engine index incl. message ring and
     cached contexts ~25, Luby states + outcome the rest); 90 gives >2x
     headroom while still failing loudly on any per-node leak of boxed
     state — one extra list cell per node per round would blow through
     it. *)
  Gc.full_major ();
  let before = (Gc.stat ()).Gc.live_words in
  let g = build_graph () in
  let eng = Runtime.Engine.create (View.full g) in
  let o = Fairmis.Luby.run_distributed_on eng (Fairmis.Rand_plan.make 5) in
  Gc.full_major ();
  let after = (Gc.stat ()).Gc.live_words in
  Alcotest.(check bool) "decided" true (Array.for_all Fun.id o.Runtime.decided);
  let nm = n_xl + Graph.m g in
  let delta = after - before in
  let ceiling = 90 * nm in
  if delta > ceiling then
    Alcotest.failf "live words %d exceed %d = 90 * (n + m)" delta ceiling;
  (* keep everything rooted until after the measurement *)
  ignore (Sys.opaque_identity (g, eng, o))

(* The kernel's steady state allocates O(1) minor words per run: the
   outcome arrays are large enough to go straight to the major heap, the
   sweep scratch is cached in the kernel, and coin draws allocate
   nothing (the per-run words are the coin drawers, the sweep closures
   and the outcome record). Measured at 36 words per Luby run and 135
   per FairTree run, flat in n; 256 fails loudly on any per-node or
   per-draw allocation (a boxed value per coin is already ~10^5 words at
   n = 10^4). Cheap enough to run without FAIRMIS_XL. *)
let test_kernel_minor_words_ceiling () =
  let ceiling = 256. in
  List.iter
    (fun n ->
      let kernel =
        Mis_sim.Kernel.create
          (View.full
             (Mis_workload.Trees.random_attachment_xl (Splitmix.of_seed 31) ~n))
      in
      let check name run =
        ignore (run 1);
        List.iter
          (fun seed ->
            let w0 = Gc.minor_words () in
            let o = run seed in
            let words = Gc.minor_words () -. w0 in
            ignore (Sys.opaque_identity o);
            if words > ceiling then
              Alcotest.failf "%s n=%d seed %d: %.0f minor words per run > %.0f"
                name n seed words ceiling)
          [ 2; 3; 4 ]
      in
      check "kernel luby" (fun seed ->
          Fairmis.Luby.run_kernel_on kernel (Fairmis.Rand_plan.make seed));
      check "kernel fairtree" (fun seed ->
          Fairmis.Fair_tree_distributed.run_kernel_on kernel
            (Fairmis.Rand_plan.make seed)))
    [ 1_000; 10_000 ]

let test_of_parents_scale () =
  require_xl ();
  (* The direct CSR constructor at scale: structural sanity without ever
     materializing an edge list. *)
  let g = build_graph () in
  Alcotest.(check int) "n" n_xl (Graph.n g);
  Alcotest.(check int) "tree edge count" (n_xl - 1) (Graph.m g);
  Alcotest.(check bool) "is a tree" true
    (Mis_graph.Traverse.is_tree (View.full g))

(* kernel/xl smoke: the data-parallel backend at the same scale — the
   whole point of the sweeps is this tier. Checks validity, full
   decision coverage, and bit-identity against the message engine. *)
let test_kernel_luby_xl () =
  require_xl ();
  let g = build_graph () in
  let view = View.full g in
  let plan = Fairmis.Rand_plan.make 5 in
  let kernel = Mis_sim.Kernel.create view in
  let k = Fairmis.Luby.run_kernel_on kernel plan in
  Alcotest.(check bool) "every node decided" true
    (Array.for_all Fun.id k.Mis_sim.Kernel.decided);
  Helpers.check_mis ~name:"xl kernel luby" view k.Mis_sim.Kernel.output;
  let eng = Runtime.Engine.create view in
  let o = Fairmis.Luby.run_distributed_on eng plan in
  Alcotest.check Helpers.bool_array "kernel = engine at n=1e5"
    o.Runtime.output k.Mis_sim.Kernel.output;
  Alcotest.(check int) "rounds agree" o.Runtime.rounds k.Mis_sim.Kernel.rounds;
  (* Kernel reuse at scale stays bit-identical. *)
  let k2 = Fairmis.Luby.run_kernel_on kernel plan in
  Alcotest.check Helpers.bool_array "kernel reuse bit-identical"
    k.Mis_sim.Kernel.output k2.Mis_sim.Kernel.output

let test_kernel_fair_tree_xl () =
  require_xl ();
  let g = build_graph () in
  let view = View.full g in
  let plan = Fairmis.Rand_plan.make 7 in
  let k = Fairmis.Fair_tree_distributed.run_kernel view plan in
  Alcotest.(check bool) "every node decided" true
    (Array.for_all Fun.id k.Mis_sim.Kernel.decided);
  Helpers.check_mis ~name:"xl kernel fairtree" view k.Mis_sim.Kernel.output

(* Above the kernel's relabel cutoff (2^18 slots) the kernel runs in its
   private BFS slot order; the 10^5 cases above stay below it. *)
let n_relabel = 300_000

let build_relabel_graph () =
  Mis_workload.Trees.random_attachment_xl (Splitmix.of_seed 97) ~n:n_relabel

let test_kernel_luby_relabelled () =
  require_xl ();
  let g = build_relabel_graph () in
  let view = View.full g in
  let plan = Fairmis.Rand_plan.make 5 in
  let kernel = Mis_sim.Kernel.create view in
  let active = (Mis_sim.Kernel.csr kernel).Mis_sim.Csr.active in
  Alcotest.(check bool) "kernel slots are relabelled" false
    (Array.for_all2 ( = ) active (Array.init n_relabel Fun.id));
  let k = Fairmis.Luby.run_kernel_on kernel plan in
  let k2 = Fairmis.Luby.run_kernel_on kernel plan in
  let eng = Runtime.Engine.create view in
  let dr = Array.make n_relabel (-1) in
  let sink =
    { Trace.emit =
        (fun ev ->
          match ev with
          | Trace.Decide { round; node; _ } -> dr.(node) <- round
          | _ -> ());
      flush = (fun () -> ()) }
  in
  let o = Fairmis.Luby.run_distributed_on ~tracer:sink eng plan in
  Alcotest.check Helpers.bool_array "output: kernel = engine" o.Runtime.output
    k.Mis_sim.Kernel.output;
  Alcotest.check Helpers.bool_array "decided: kernel = engine"
    o.Runtime.decided k.Mis_sim.Kernel.decided;
  Alcotest.check Helpers.int_array "decide rounds: kernel = engine" dr
    k.Mis_sim.Kernel.decide_round;
  Alcotest.(check int) "rounds agree" o.Runtime.rounds k.Mis_sim.Kernel.rounds;
  Alcotest.check Helpers.bool_array "kernel reuse bit-identical"
    k.Mis_sim.Kernel.output k2.Mis_sim.Kernel.output

(* [Kernel.create] above the cutoff compiles, relabels and keeps only
   the relabelled [Csr.t]. Measured: 3.5 live words per (n + m) on a
   tree, exactly the kernel's topology (ids, active, slot, adj_off, the
   2m adj_slot entries and slot_id: 7n words). Keeping the compile's
   copy too would add its active, slot and adjacency (5n words, 6.0 per
   (n + m)); 4.5 leaves ~30% headroom below that. *)
let test_kernel_live_words_relabelled () =
  require_xl ();
  let g = build_relabel_graph () in
  Gc.full_major ();
  let before = (Gc.stat ()).Gc.live_words in
  let kernel = Mis_sim.Kernel.create (View.full g) in
  Gc.full_major ();
  let after = (Gc.stat ()).Gc.live_words in
  let nm = n_relabel + Graph.m g in
  let delta = after - before in
  let ceiling = 9 * nm / 2 in
  if delta > ceiling then
    Alcotest.failf "kernel live words %d exceed %d = 4.5 * (n + m)" delta
      ceiling;
  ignore (Sys.opaque_identity (g, kernel))

(* Golden digests of the 10^6-node kernel path: output bits, per-node
   decide rounds and the [rounds] total of kernel Luby and FairTree on
   [random_attachment_xl] trees, graph seed = plan seed. They were
   recorded while the kernel still ran in the compile's slot order; it
   now runs these sizes in its private BFS order, so they pin that the
   order never reaches a result. *)
let n_big = 1_000_000

let outcome_digest (o : Mis_sim.Kernel.outcome) =
  let b = Buffer.create (8 * Array.length o.Mis_sim.Kernel.output) in
  Array.iter
    (fun x -> Buffer.add_char b (if x then '1' else '0'))
    o.Mis_sim.Kernel.output;
  Array.iter
    (fun r ->
      Buffer.add_string b (string_of_int r);
      Buffer.add_char b ',')
    o.Mis_sim.Kernel.decide_round;
  Buffer.add_string b (string_of_int o.Mis_sim.Kernel.rounds);
  Digest.to_hex (Digest.string (Buffer.contents b))

let big_pins =
  [ (1, "96efa982237d1db521aa094c5526d42b", "1eb08b37d23bf66d2c21486c75f0ba26");
    (2, "3f556cd9a105d37e903f1956c65730e4", "d966d5a7381f6bf87580421cc31e22ab");
    (3, "b5c88050751ac69459043760ecaa4d72", "5690124c8a3d2f54d0777e98c5feb424")
  ]

let test_kernel_big_pins () =
  require_xl ();
  List.iter
    (fun (seed, luby, fair) ->
      let g =
        Mis_workload.Trees.random_attachment_xl (Splitmix.of_seed seed)
          ~n:n_big
      in
      let kernel = Mis_sim.Kernel.create (View.full g) in
      let plan = Fairmis.Rand_plan.make seed in
      let l = outcome_digest (Fairmis.Luby.run_kernel_on kernel plan) in
      let f =
        outcome_digest (Fairmis.Fair_tree_distributed.run_kernel_on kernel plan)
      in
      Alcotest.(check string) (Printf.sprintf "luby seed %d" seed) luby l;
      Alcotest.(check string) (Printf.sprintf "fairtree seed %d" seed) fair f)
    big_pins

let suite =
  [ ( "engine.xl",
      [ Alcotest.test_case "luby n=1e5: validity + conservation" `Slow
          test_luby_validity_and_conservation;
        Alcotest.test_case "live-words ceiling c(n+m)" `Slow
          test_live_words_ceiling;
        Alcotest.test_case "of_parents topology at scale" `Slow
          test_of_parents_scale ] );
    ( "kernel.xl",
      [ Alcotest.test_case "kernel luby n=1e5: validity + equivalence" `Slow
          test_kernel_luby_xl;
        Alcotest.test_case "kernel fairtree n=1e5: validity" `Slow
          test_kernel_fair_tree_xl;
        Alcotest.test_case "kernel luby n=3e5 (relabelled): equivalence" `Slow
          test_kernel_luby_relabelled;
        Alcotest.test_case "kernel live words n=3e5: one Csr retained" `Slow
          test_kernel_live_words_relabelled;
        Alcotest.test_case "kernel luby/fairtree n=1e6: golden digests" `Slow
          test_kernel_big_pins;
        Alcotest.test_case "kernel minor words per run O(1) (n=1e3, 1e4)"
          `Quick test_kernel_minor_words_ceiling ] ) ]

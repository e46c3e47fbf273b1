module Stage = Rand_plan.Stage

let ceil_log2 n =
  let rec loop k acc = if acc >= n then k else loop (k + 1) (2 * acc) in
  loop 0 1

let gamma_default ~n = (4 * ceil_log2 (max n 2)) + 2

let max_rounds_for ~n ~gamma =
  (6 * gamma) + 6 + (64 * (ceil_log2 (max n 2) + 2))

(* The kernel backend takes the protocol's coins as closures, so the
   Rand_plan keying stays defined in exactly one place per draw. The
   drawers mix each stage's constant key prefix once per run. *)
let kernel_coins plan =
  { Mis_sim.Kernel.cut = Rand_plan.edge_bits plan ~stage:Stage.fair_tree_cut;
    bit1 = Rand_plan.node_bits plan ~stage:Stage.fair_tree_s1;
    bit2 = Rand_plan.node_bits plan ~stage:Stage.fair_tree_s2;
    bit3 = Rand_plan.node_bits plan ~stage:Stage.fair_tree_s3;
    luby_value = Rand_plan.node_values plan ~stage:Stage.fair_tree_luby }

let run_kernel_on ?gamma kernel plan =
  let n = Mis_graph.View.n (Mis_sim.Kernel.view kernel) in
  let gamma = match gamma with Some g -> g | None -> gamma_default ~n in
  Mis_sim.Kernel.fair_tree
    ~max_rounds:(max_rounds_for ~n ~gamma)
    ~gamma ~coins:(kernel_coins plan) kernel

let run ?gamma view plan =
  (run_kernel_on ?gamma (Mis_sim.Kernel.create view) plan).Mis_sim.Kernel.output

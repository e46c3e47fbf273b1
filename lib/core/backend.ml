type t = Message | Kernel

let all = [ Message; Kernel ]
let to_string = function Message -> "message" | Kernel -> "kernel"

let of_string = function
  | "message" -> Some Message
  | "kernel" -> Some Kernel
  | _ -> None

type outcome = {
  output : bool array;
  decided : bool array;
  rounds : int;
}

let of_engine (o : Mis_sim.Runtime.outcome) =
  { output = o.Mis_sim.Runtime.output; decided = o.Mis_sim.Runtime.decided;
    rounds = o.Mis_sim.Runtime.rounds }

let of_kernel (o : Mis_sim.Kernel.outcome) =
  { output = o.Mis_sim.Kernel.output; decided = o.Mis_sim.Kernel.decided;
    rounds = o.Mis_sim.Kernel.rounds }

(* Two stages. [prepare_*] compiles the view's topology once (the
   [Csr.compile] half, about as costly as one Luby kernel run on the
   Table I trees; on the kernel also [Kernel.of_csr], which relabels
   large topologies). Each application of the result to [()] builds the
   per-domain half over that shared, read-only topology: an engine's
   queues and contexts, or a kernel's sweep scratch. Trial drivers
   prepare once per estimate and instantiate once per domain-chunk
   (Trials.fold_ctx / Montecarlo.estimate_ctx), so neither backend
   shares mutable state across domains. *)

let staged backend view ~message ~kernel =
  let csr = Mis_sim.Csr.compile view in
  match backend with
  | Message ->
    fun () ->
      let e = Mis_sim.Runtime.Engine.of_csr csr in
      fun plan -> of_engine (message e plan)
  | Kernel ->
    let proto = Mis_sim.Kernel.of_csr csr in
    fun () ->
      let k = Mis_sim.Kernel.fresh proto in
      fun plan -> of_kernel (kernel k plan)

let prepare_luby backend view =
  staged backend view
    ~message:(fun e plan -> Luby.run_distributed_on e plan)
    ~kernel:(fun k plan -> Luby.run_kernel_on k plan)

let prepare_fair_tree ?gamma backend view =
  staged backend view
    ~message:(fun e plan -> Fair_tree_distributed.run_on ?gamma e plan)
    ~kernel:(fun k plan -> Fair_tree_distributed.run_kernel_on ?gamma k plan)

let exec_of_name ?gamma backend view = function
  | "luby" -> Some (prepare_luby backend view ())
  | "fairtree" -> Some (prepare_fair_tree ?gamma backend view ())
  | _ -> None

let supported = [ "luby"; "fairtree" ]

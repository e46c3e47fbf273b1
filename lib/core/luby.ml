module View = Mis_graph.View
module Program = Mis_sim.Program

let default_stage = Rand_plan.Stage.luby_main

(* A node wins a phase when its (value, id) pair is a strict lexicographic
   minimum among itself and its live neighbors. *)
let beats (v1, id1) (v2, id2) = v1 < v2 || (v1 = v2 && id1 < id2)

type message =
  | Value of int
  | In_mis
  | Withdraw

type sub =
  | Await_values
  | Await_in_mis
  | Await_withdraws

type state = {
  phase : int;
  sub : sub;
  live : int list; (* ids of still-competing neighbors *)
  my_value : int;
}

let program plan ~stage : (state, message) Program.t =
  let value_of id phase = Rand_plan.node_value plan ~stage ~round:phase ~node:id in
  let init (ctx : Mis_sim.Node_ctx.t) =
    let v = value_of ctx.id 0 in
    ( { phase = 0; sub = Await_values; live = Array.to_list ctx.neighbor_ids;
        my_value = v },
      [ Program.Probe ("luby.phase", 0); Program.Broadcast (Value v) ] )
  in
  let receive (ctx : Mis_sim.Node_ctx.t) st inbox =
    match st.sub with
    | Await_values ->
      let beaten = ref false in
      List.iter
        (fun (sender, msg) ->
          match msg with
          | Value v ->
            if not (beats (st.my_value, ctx.id) (v, sender)) then beaten := true
          | In_mis | Withdraw -> ())
        inbox;
      if !beaten then (Program.Continue { st with sub = Await_in_mis }, [])
      else (Program.Output true, [ Program.Broadcast In_mis ])
    | Await_in_mis ->
      let covered = List.exists (fun (_, m) -> m = In_mis) inbox in
      if covered then (Program.Output false, [ Program.Broadcast Withdraw ])
      else (Program.Continue { st with sub = Await_withdraws }, [])
    | Await_withdraws ->
      let gone =
        List.filter_map
          (fun (sender, m) -> if m = Withdraw then Some sender else None)
          inbox
      in
      let live = List.filter (fun id -> not (List.mem id gone)) st.live in
      let phase = st.phase + 1 in
      let v = value_of ctx.id phase in
      ( Program.Continue { phase; sub = Await_values; live; my_value = v },
        [ Program.Probe ("luby.phase", phase); Program.Broadcast (Value v) ] )
  in
  { Program.name = "luby"; init; receive }

let run_distributed ?(stage = default_stage) ?tracer view plan =
  let prog = program plan ~stage in
  Mis_sim.Runtime.run ?tracer
    ~rng_of:(fun u -> Rand_plan.node_stream plan ~stage ~node:u)
    view prog

let run_distributed_on ?(stage = default_stage) ?tracer engine plan =
  let prog = program plan ~stage in
  Mis_sim.Runtime.Engine.exec ?tracer
    ~rng_of:(fun u -> Rand_plan.node_stream plan ~stage ~node:u)
    engine prog

let run_kernel_on ?(stage = default_stage) kernel plan =
  Mis_sim.Kernel.luby ~value_of:(Rand_plan.node_values plan ~stage) kernel

let run_kernel ?stage view plan =
  run_kernel_on ?stage (Mis_sim.Kernel.create view) plan

let run ?stage view plan = (run_kernel ?stage view plan).Mis_sim.Kernel.output

(* The Luby stage that finishes a composite algorithm: the kernel on the
   [nodes]-induced part of [view]. Phases span 3 rounds; the last one
   ends after its winners (round 3p+1) or their neighbors (3p+2). *)
let fallback ~stage view ~nodes plan =
  let g = Mis_graph.View.graph view in
  let edges =
    Array.init (Mis_graph.Graph.m g) (Mis_graph.View.usable_edge view)
  in
  let o = run_kernel ~stage (Mis_graph.View.restrict ~nodes ~edges g) plan in
  let rounds = o.Mis_sim.Kernel.rounds in
  (o.Mis_sim.Kernel.output, if rounds = 0 then 0 else ((rounds - 1) / 3) + 1)

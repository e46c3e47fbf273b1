module Program = Mis_sim.Program
module Node_ctx = Mis_sim.Node_ctx
module Stage = Rand_plan.Stage
open Messages

(* CntrlFairBipart sub-state embedded once per stage. *)
type cfb = {
  best : int;
  lead : int;
  depth : int;
  bit : bool;
}

let cfb_init id = { best = id; lead = -1; depth = -1; bit = false }

type luby_sub = Await_values | Await_in_mis | Await_withdraws

type state = {
  round : int;
  uncut : int list;  (* neighbor ids across uncut edges *)
  i1_neighbors : int list;
  uncovered_neighbors : int list;
  i1 : bool;
  i2 : bool;
  uncovered : bool;
  i3 : bool;
  cfb : cfb;
  luby_phase : int;
  luby_sub : luby_sub;
  luby_value : int;
}

let better (l1, d1) (l2, d2) = l1 > l2 || (l1 = l2 && d1 < d2)

(* Fold one round of flood-max messages from allowed senders. *)
let flood_step allowed cfb inbox =
  let best =
    List.fold_left
      (fun acc (sender, m) ->
        match m with
        | Max_id v when allowed sender -> max acc v
        | Max_id _ | Bfs _ | Member _ | Color _ | Value _ | In_mis | Withdraw ->
          acc)
      cfb.best inbox
  in
  { cfb with best }

(* Fold one round of BFS-adoption messages from allowed senders. *)
let bfs_step allowed cfb inbox =
  List.fold_left
    (fun cfb (sender, m) ->
      match m with
      | Bfs { lead; depth; bit } when allowed sender ->
        let cand = (lead, depth + 1) in
        if cfb.lead < 0 || better cand (cfb.lead, cfb.depth) then
          { cfb with lead; depth = depth + 1; bit }
        else cfb
      | Bfs _ | Max_id _ | Member _ | Color _ | Value _ | In_mis | Withdraw ->
        cfb)
    cfb inbox

let members_of inbox =
  List.filter_map
    (fun (sender, m) -> match m with Member true -> Some sender | _ -> None)
    inbox

let any_member inbox = members_of inbox <> []

let cfb_joined ~participant_degree cfb =
  if participant_degree = 0 then true
  else if cfb.lead < 0 then false
  else (cfb.depth + if cfb.bit then 1 else 0) mod 2 = 0

let beats (v1, id1) (v2, id2) = v1 < v2 || (v1 = v2 && id1 < id2)

let program ~plan ~gamma : (state, Messages.t) Program.t =
  if gamma < 1 then invalid_arg "Fair_tree_distributed.program: gamma";
  let g = gamma in
  let bit_for stage node = Rand_plan.node_bit plan ~stage ~node in
  let luby_value_for id phase =
    Rand_plan.node_value plan ~stage:Stage.fair_tree_luby ~round:phase ~node:id
  in
  let init (ctx : Node_ctx.t) =
    let uncut =
      Array.to_list ctx.neighbor_ids
      |> List.filter (fun v ->
             not
               (Rand_plan.edge_bit plan ~stage:Stage.fair_tree_cut
                  ~u:(min ctx.id v) ~v:(max ctx.id v)))
    in
    ( { round = 0; uncut; i1_neighbors = []; uncovered_neighbors = [];
        i1 = false; i2 = false; uncovered = false; i3 = false;
        cfb = cfb_init ctx.id; luby_phase = 0; luby_sub = Await_values;
        luby_value = 0 },
      [ Program.Broadcast (Max_id ctx.id) ] )
  in
  let receive (ctx : Node_ctx.t) st inbox =
    let r = st.round + 1 in
    let st = { st with round = r } in
    let id = ctx.id in
    (* Stage 1: CntrlFairBipart over uncut edges; rounds 1..2g. *)
    if r <= g then begin
      let allowed s = List.mem s st.uncut in
      let cfb = flood_step allowed st.cfb inbox in
      if r < g then
        (Program.Continue { st with cfb }, [ Program.Broadcast (Max_id cfb.best) ])
      else if cfb.best = id then begin
        let bit = bit_for Stage.fair_tree_s1 id in
        let cfb = { cfb with lead = id; depth = 0; bit } in
        ( Program.Continue { st with cfb },
          [ Program.Broadcast (Bfs { lead = id; depth = 0; bit }) ] )
      end
      else (Program.Continue { st with cfb }, [])
    end
    else if r <= 2 * g then begin
      let allowed s = List.mem s st.uncut in
      let cfb = bfs_step allowed st.cfb inbox in
      if r < 2 * g then begin
        let actions =
          if cfb.lead >= 0 then
            [ Program.Broadcast (Bfs { lead = cfb.lead; depth = cfb.depth; bit = cfb.bit }) ]
          else []
        in
        (Program.Continue { st with cfb }, actions)
      end
      else begin
        let i1 = cfb_joined ~participant_degree:(List.length st.uncut) cfb in
        ( Program.Continue { st with cfb; i1 },
          [ Program.Probe ("fairtree.i1", if i1 then 1 else 0);
            Program.Broadcast (Member i1) ] )
      end
    end
    (* Announce I1; stage-2 participants start their flood. *)
    else if r = (2 * g) + 1 then begin
      let i1_neighbors = members_of inbox in
      let st = { st with i1_neighbors; cfb = cfb_init id } in
      if st.i1 then (Program.Continue st, [ Program.Broadcast (Max_id id) ])
      else (Program.Continue st, [])
    end
    (* Stage 2: CntrlFairBipart on the subgraph induced by I1. *)
    else if r <= (3 * g) + 1 then begin
      if not st.i1 then (Program.Continue st, [])
      else begin
        let allowed s = List.mem s st.i1_neighbors in
        let cfb = flood_step allowed st.cfb inbox in
        if r < (3 * g) + 1 then
          (Program.Continue { st with cfb }, [ Program.Broadcast (Max_id cfb.best) ])
        else if cfb.best = id then begin
          let bit = bit_for Stage.fair_tree_s2 id in
          let cfb = { cfb with lead = id; depth = 0; bit } in
          ( Program.Continue { st with cfb },
            [ Program.Broadcast (Bfs { lead = id; depth = 0; bit }) ] )
        end
        else (Program.Continue { st with cfb }, [])
      end
    end
    else if r <= (4 * g) + 1 then begin
      let decide st cfb =
        let joined =
          st.i1
          && cfb_joined ~participant_degree:(List.length st.i1_neighbors) cfb
        in
        let i2 = st.i1 && joined in
        ( Program.Continue { st with cfb; i2 },
          [ Program.Probe ("fairtree.i2", if i2 then 1 else 0);
            Program.Broadcast (Member i2) ] )
      in
      if not st.i1 then
        if r < (4 * g) + 1 then (Program.Continue st, [])
        else decide st st.cfb
      else begin
        let allowed s = List.mem s st.i1_neighbors in
        let cfb = bfs_step allowed st.cfb inbox in
        if r < (4 * g) + 1 then begin
          let actions =
            if cfb.lead >= 0 then
              [ Program.Broadcast (Bfs { lead = cfb.lead; depth = cfb.depth; bit = cfb.bit }) ]
            else []
          in
          (Program.Continue { st with cfb }, actions)
        end
        else decide st cfb
      end
    end
    (* Coverage bookkeeping: learn I2, announce uncovered status. *)
    else if r = (4 * g) + 2 then begin
      let covered = st.i2 || any_member inbox in
      let uncovered = not covered in
      (Program.Continue { st with uncovered }, [ Program.Broadcast (Member uncovered) ])
    end
    else if r = (4 * g) + 3 then begin
      let uncovered_neighbors = members_of inbox in
      let st = { st with uncovered_neighbors; cfb = cfb_init id } in
      if st.uncovered then (Program.Continue st, [ Program.Broadcast (Max_id id) ])
      else (Program.Continue st, [])
    end
    (* Stage 3: CntrlFairBipart on the uncovered nodes. *)
    else if r <= (5 * g) + 3 then begin
      if not st.uncovered then (Program.Continue st, [])
      else begin
        let allowed s = List.mem s st.uncovered_neighbors in
        let cfb = flood_step allowed st.cfb inbox in
        if r < (5 * g) + 3 then
          (Program.Continue { st with cfb }, [ Program.Broadcast (Max_id cfb.best) ])
        else if cfb.best = id then begin
          let bit = bit_for Stage.fair_tree_s3 id in
          let cfb = { cfb with lead = id; depth = 0; bit } in
          ( Program.Continue { st with cfb },
            [ Program.Broadcast (Bfs { lead = id; depth = 0; bit }) ] )
        end
        else (Program.Continue { st with cfb }, [])
      end
    end
    else if r <= (6 * g) + 3 then begin
      let decide st cfb =
        let joined =
          st.uncovered
          && cfb_joined
               ~participant_degree:(List.length st.uncovered_neighbors)
               cfb
        in
        let i3 = st.i2 || joined in
        (Program.Continue { st with cfb; i3 }, [ Program.Broadcast (Member i3) ])
      in
      if not st.uncovered then
        if r < (6 * g) + 3 then (Program.Continue st, [])
        else decide st st.cfb
      else begin
        let allowed s = List.mem s st.uncovered_neighbors in
        let cfb = bfs_step allowed st.cfb inbox in
        if r < (6 * g) + 3 then begin
          let actions =
            if cfb.lead >= 0 then
              [ Program.Broadcast (Bfs { lead = cfb.lead; depth = cfb.depth; bit = cfb.bit }) ]
            else []
          in
          (Program.Continue { st with cfb }, actions)
        end
        else decide st cfb
      end
    end
    (* Stage 4: repair independence, then Luby on the remainder. *)
    else if r = (6 * g) + 4 then begin
      let i4 = st.i3 && not (any_member inbox) in
      (* Reuse [i3] to carry the repaired membership forward. *)
      ( Program.Continue { st with i3 = i4 },
        [ Program.Probe ("fairtree.i4", if i4 then 1 else 0);
          Program.Broadcast (Member i4) ] )
    end
    else if r = (6 * g) + 5 then begin
      let i4 = st.i3 in
      if i4 then (Program.Output true, [])
      else if any_member inbox then (Program.Output false, [])
      else begin
        let v = luby_value_for id 0 in
        ( Program.Continue
            { st with luby_phase = 0; luby_sub = Await_values; luby_value = v },
          [ Program.Probe ("fairtree.luby_fallback", 1);
            Program.Broadcast (Value v) ] )
      end
    end
    (* Luby fallback among the remaining nodes (3 rounds per phase). *)
    else begin
      match st.luby_sub with
      | Await_values ->
        let beaten = ref false in
        List.iter
          (fun (sender, m) ->
            match m with
            | Value v ->
              if not (beats (st.luby_value, id) (v, sender)) then beaten := true
            | Max_id _ | Bfs _ | Member _ | Color _ | In_mis | Withdraw -> ())
          inbox;
        if !beaten then (Program.Continue { st with luby_sub = Await_in_mis }, [])
        else (Program.Output true, [ Program.Broadcast In_mis ])
      | Await_in_mis ->
        if List.exists (fun (_, m) -> m = In_mis) inbox then
          (Program.Output false, [ Program.Broadcast Withdraw ])
        else (Program.Continue { st with luby_sub = Await_withdraws }, [])
      | Await_withdraws ->
        let phase = st.luby_phase + 1 in
        let v = luby_value_for id phase in
        ( Program.Continue
            { st with luby_phase = phase; luby_sub = Await_values; luby_value = v },
          [ Program.Broadcast (Value v) ] )
    end
  in
  { Program.name = "fair_tree"; init; receive }

let ceil_log2 n =
  let rec loop k acc = if acc >= n then k else loop (k + 1) (2 * acc) in
  loop 0 1

let message_bits ~n m =
  let id_bits = ceil_log2 (max n 2) in
  match m with
  | Max_id _ -> id_bits
  | Bfs _ -> (2 * id_bits) + 1
  | Member _ -> 1
  | Color _ -> id_bits
  | Value _ -> 62
  | In_mis | Withdraw -> 1

let gamma_for ~n gamma =
  match gamma with Some v -> v | None -> Fair_tree.gamma_default ~n

let run ?gamma ?tracer view plan =
  let n = Mis_graph.View.n view in
  let gamma = gamma_for ~n gamma in
  let prog = program ~plan ~gamma in
  Mis_sim.Runtime.run
    ~max_rounds:(Fair_tree.max_rounds_for ~n ~gamma)
    ~size_bits:(message_bits ~n) ?tracer
    ~rng_of:(fun u -> Rand_plan.node_stream plan ~stage:99 ~node:u)
    view prog

let run_on ?gamma ?tracer engine plan =
  let n = Mis_graph.View.n (Mis_sim.Runtime.Engine.view engine) in
  let gamma = gamma_for ~n gamma in
  let prog = program ~plan ~gamma in
  Mis_sim.Runtime.Engine.exec
    ~max_rounds:(Fair_tree.max_rounds_for ~n ~gamma)
    ~size_bits:(message_bits ~n) ?tracer
    ~rng_of:(fun u -> Rand_plan.node_stream plan ~stage:99 ~node:u)
    engine prog

let run_kernel_on = Fair_tree.run_kernel_on

let run_kernel ?gamma view plan =
  run_kernel_on ?gamma (Mis_sim.Kernel.create view) plan

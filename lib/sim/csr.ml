module View = Mis_graph.View

(* The topology-dependent compilation both execution backends share: the
   active-slot maps and the CSR neighbor index. [Runtime.Engine] layers
   message rings and per-node contexts on top; [Kernel] layers frontier
   and mask scratch. Keeping the compile here means the two backends are
   guaranteed to agree on slot numbering and adjacency order — the
   bit-identity contract between them starts with this file. (A large
   kernel renumbers the slots for locality, [Kernel.relabel], but reads
   only program ids and node indices, so the agreement holds.) Only what
   both backends read is built here; anything one backend alone needs
   lives with that backend. *)

type t = {
  c_view : View.t;
  n : int;
  ids : int array;
  active : int array;  (* slot -> node index *)
  slot : int array;  (* node index -> slot, or -1 *)
  (* CSR adjacency over slots: the neighbors of [active.(s)], in view
     iteration order, are the slots
     [adj_slot.(adj_off.(s)) .. adj_slot.(adj_off.(s+1) - 1)]. *)
  adj_off : int array;
  adj_slot : int array;
}

(* Caller-supplied ids are outside input: reject a wrong length or a
   repeated id among the active nodes. The identity map needs no check. *)
let check_ids view ids active =
  if Array.length ids <> View.n view then invalid_arg "Runtime.run: ids length";
  let seen = Hashtbl.create ((2 * Array.length active) + 1) in
  Array.iter
    (fun u ->
      (* The FairTree stages take a negative lead as "no leader yet". *)
      if ids.(u) < 0 then
        invalid_arg
          (Printf.sprintf "Runtime.run: negative id %d at node %d" ids.(u) u);
      if Hashtbl.mem seen ids.(u) then invalid_arg "Runtime.run: duplicate ids";
      Hashtbl.add seen ids.(u) ())
    active

let compile ?ids view =
  let n = View.n view in
  let active = View.active_nodes view in
  let ids =
    match ids with
    | Some a ->
      check_ids view a active;
      a
    | None -> Array.init n (fun i -> i)
  in
  let nslots = Array.length active in
  (* With every node active, slots are node indices: [slot] is the
     identity and an entry is the neighbor itself, so the adjacency pass
     skips the per-entry [slot] read. *)
  let all = nslots = n in
  let slot =
    if all then Array.init n Fun.id
    else begin
      let slot = Array.make n (-1) in
      Array.iteri (fun s u -> slot.(u) <- s) active;
      slot
    end
  in
  (* One adjacency pass into a buffer sized by the full-graph degrees,
     exact for a full view and trimmed otherwise. View adjacency only
     yields active endpoints, so every entry has a slot. One padding
     entry keeps the array non-empty. *)
  let g = View.graph view in
  let bound =
    Array.fold_left (fun acc u -> acc + Mis_graph.Graph.degree g u) 0 active
  in
  let buf = Array.make (max 1 bound) 0 in
  let adj_off = Array.make (nslots + 1) 0 in
  let k = ref 0 in
  let push =
    if all then fun v ->
      buf.(!k) <- v;
      incr k
    else fun v ->
      buf.(!k) <- slot.(v);
      incr k
  in
  for s = 0 to nslots - 1 do
    View.iter_adj view active.(s) push;
    adj_off.(s + 1) <- !k
  done;
  let adj_slot = if !k = bound then buf else Array.sub buf 0 (max 1 !k) in
  { c_view = view; n; ids; active; slot; adj_off; adj_slot }

let view t = t.c_view
let nslots t = Array.length t.active
let deg t s = t.adj_off.(s + 1) - t.adj_off.(s)

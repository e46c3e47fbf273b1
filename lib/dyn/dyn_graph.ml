module Graph = Mis_graph.Graph
module View = Mis_graph.View

type state = Absent | Alive | Crashed

(* Each slot's neighbours live in [adj.(u).(0 .. deg.(u) - 1)], a vector
   that doubles when full and halves once it is at most a quarter full,
   so a hub that sheds its links also sheds their memory. The lists are
   symmetric and kept across crashes. *)
type t = {
  capacity : int;
  states : state array;
  adj : int array array;
  deg : int array;
  mutable alive_count : int;
  mutable live_edges : int;  (* both endpoints alive *)
}

let min_vector = 4

let create ~capacity =
  if capacity < 1 then invalid_arg "Dyn_graph.create: capacity must be >= 1";
  { capacity;
    states = Array.make capacity Absent;
    adj = Array.make capacity [||];
    deg = Array.make capacity 0;
    alive_count = 0;
    live_edges = 0 }

let capacity t = t.capacity

let check_node t u name =
  if u < 0 || u >= t.capacity then
    invalid_arg (Printf.sprintf "Dyn_graph.%s: node %d out of range" name u)

let state t u =
  check_node t u "state";
  t.states.(u)

let alive t u =
  check_node t u "alive";
  t.states.(u) = Alive

let alive_count t = t.alive_count
let edge_count t = t.live_edges

let join t u =
  check_node t u "join";
  match t.states.(u) with
  | Absent ->
    t.states.(u) <- Alive;
    t.alive_count <- t.alive_count + 1;
    true
  | Alive | Crashed -> false

(* Position of [v] in [a.(0 .. i)], or -1. *)
let rec index_of a v i =
  if i < 0 then -1 else if a.(i) = v then i else index_of a v (i - 1)

let find t u v = index_of t.adj.(u) v (t.deg.(u) - 1)

let linked t u v =
  if t.deg.(u) <= t.deg.(v) then find t u v >= 0 else find t v u >= 0

let mem_edge t u v =
  check_node t u "mem_edge";
  check_node t v "mem_edge";
  linked t u v

let push t u v =
  let a = t.adj.(u) and d = t.deg.(u) in
  let a =
    if d < Array.length a then a
    else begin
      let b = Array.make (max min_vector (2 * d)) 0 in
      Array.blit a 0 b 0 d;
      t.adj.(u) <- b;
      b
    end
  in
  a.(d) <- v;
  t.deg.(u) <- d + 1

(* Swap-remove [v] from [u]'s list, which must contain it. *)
let remove t u v =
  let a = t.adj.(u) and d = t.deg.(u) - 1 in
  a.(find t u v) <- a.(d);
  t.deg.(u) <- d;
  let cap = Array.length a in
  if cap > min_vector && d <= cap / 4 then t.adj.(u) <- Array.sub a 0 (cap / 2)

let leave t u =
  check_node t u "leave";
  match t.states.(u) with
  | Alive ->
    let a = t.adj.(u) in
    for i = 0 to t.deg.(u) - 1 do
      let v = a.(i) in
      remove t v u;
      if t.states.(v) = Alive then t.live_edges <- t.live_edges - 1
    done;
    t.adj.(u) <- [||];
    t.deg.(u) <- 0;
    t.states.(u) <- Absent;
    t.alive_count <- t.alive_count - 1;
    true
  | Absent | Crashed -> false

let crash t u =
  check_node t u "crash";
  match t.states.(u) with
  | Alive ->
    (* Links stay but stop counting as live. *)
    let a = t.adj.(u) in
    for i = 0 to t.deg.(u) - 1 do
      if t.states.(a.(i)) = Alive then t.live_edges <- t.live_edges - 1
    done;
    t.states.(u) <- Crashed;
    t.alive_count <- t.alive_count - 1;
    true
  | Absent | Crashed -> false

let insert_edge t u v =
  check_node t u "insert_edge";
  check_node t v "insert_edge";
  if u = v || t.states.(u) <> Alive || t.states.(v) <> Alive || linked t u v
  then false
  else begin
    push t u v;
    push t v u;
    t.live_edges <- t.live_edges + 1;
    true
  end

let delete_edge t u v =
  check_node t u "delete_edge";
  check_node t v "delete_edge";
  if u = v || t.states.(u) <> Alive || t.states.(v) <> Alive
     || not (linked t u v)
  then false
  else begin
    remove t u v;
    remove t v u;
    t.live_edges <- t.live_edges - 1;
    true
  end

let iter_adj_alive t u f =
  check_node t u "iter_adj_alive";
  let a = t.adj.(u) in
  for i = 0 to t.deg.(u) - 1 do
    let v = a.(i) in
    if t.states.(v) = Alive then f v
  done

let adj_alive_sorted t u =
  let acc = ref [] in
  iter_adj_alive t u (fun v -> acc := v :: !acc);
  let a = Array.of_list !acc in
  Array.sort compare a;
  a

let degree_alive t u =
  let d = ref 0 in
  iter_adj_alive t u (fun _ -> incr d);
  !d

let alive_nodes t =
  let acc = ref [] in
  for u = t.capacity - 1 downto 0 do
    if t.states.(u) = Alive then acc := u :: !acc
  done;
  Array.of_list !acc

(* Snapshot helpers. Edges are collected normalized (u < v) and sorted so
   the CSR is a deterministic function of the graph's contents, not of
   adjacency order. *)
let edges_where t keep =
  let acc = ref [] in
  for u = 0 to t.capacity - 1 do
    if keep u then begin
      let a = t.adj.(u) in
      for i = 0 to t.deg.(u) - 1 do
        let v = a.(i) in
        if u < v && keep v then acc := (u, v) :: !acc
      done
    end
  done;
  let a = Array.of_list !acc in
  Array.sort compare a;
  a

let to_view t =
  let present u = t.states.(u) <> Absent in
  let g = Graph.of_edge_array ~n:t.capacity (edges_where t present) in
  let nodes = Array.init t.capacity present in
  let crashed = Array.map (fun s -> s = Crashed) t.states in
  (View.restrict ~nodes g, crashed)

let live_view t =
  let is_alive u = t.states.(u) = Alive in
  let g = Graph.of_edge_array ~n:t.capacity (edges_where t is_alive) in
  View.restrict ~nodes:(Array.init t.capacity is_alive) g

type t = {
  g : Graph.t;
  nodes : bool array option;
  edges : bool array option;
}

let full g = { g; nodes = None; edges = None }

let restrict ?nodes ?edges g =
  (match nodes with
  | Some a when Array.length a <> Graph.n g ->
    invalid_arg "View.restrict: node mask length"
  | _ -> ());
  (match edges with
  | Some a when Array.length a <> Graph.m g ->
    invalid_arg "View.restrict: edge mask length"
  | _ -> ());
  { g; nodes; edges }

let induced g nodes = restrict ~nodes g

let graph t = t.g
let n t = Graph.n t.g

let node_active t u =
  match t.nodes with
  | None -> true
  | Some mask -> mask.(u)

let edge_active t e =
  match t.edges with
  | None -> true
  | Some mask -> mask.(e)

let usable_edge t e =
  edge_active t e
  &&
  let u, v = Graph.edge_endpoints t.g e in
  node_active t u && node_active t v

let iter_active t f =
  for u = 0 to n t - 1 do
    if node_active t u then f u
  done

let count_active t =
  let c = ref 0 in
  iter_active t (fun _ -> incr c);
  !c

let active_nodes t =
  let a = Array.make (count_active t) 0 in
  let k = ref 0 in
  for u = 0 to n t - 1 do
    if node_active t u then begin
      a.(!k) <- u;
      incr k
    end
  done;
  a

let iter_adj_e t u f =
  Graph.iter_adj_e t.g u (fun v e ->
      if edge_active t e && node_active t v then f v e)

(* An unmasked view is the graph itself: skip the two mask closures. *)
let iter_adj t u f =
  match (t.nodes, t.edges) with
  | None, None -> Graph.iter_adj t.g u f
  | _ -> iter_adj_e t u (fun v _ -> f v)

let degree t u =
  let d = ref 0 in
  iter_adj t u (fun _ -> incr d);
  !d

let exists_adj t u pred =
  let found = ref false in
  iter_adj t u (fun v -> if (not !found) && pred v then found := true);
  !found

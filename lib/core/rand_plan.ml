module Splitmix = Mis_util.Splitmix

(* [h0] is [Splitmix.mix64 base], the first step every
   [Splitmix.derive base keys] takes, computed once per plan. *)
type t = { h0 : int64; seed_int : int }

let make s =
  let base = Splitmix.derive (Int64.of_int s) [ 0x5EED ] in
  { h0 = Splitmix.mix64 base; seed_int = s }

let seed t = t.seed_int

module Stage = struct
  let fair_rooted_tag = 1
  let fair_rooted_virtual = 2
  let fair_tree_cut = 10
  let fair_tree_s1 = 11
  let fair_tree_s2 = 12
  let fair_tree_s3 = 13
  let fair_tree_luby = 14
  let fair_bipart_radius = 20
  let fair_bipart_bit = 21
  let fair_bipart_luby = 22
  let color_mis_radius = 30
  let color_mis_choice = 31
  let color_mis_luby = 32
  let coloring_greedy = 40
  let coloring_layered = 41
  let luby_main = 50
  let centralized = 60
end

(* The keyed draws below compute exactly the bits of
   [Splitmix.of_key (Splitmix.derive base keys)] and its first output,
   but on unboxed [int64] locals. The hash is repeated here, not called
   from [Splitmix]: without cross-module inlining (dune's dev profile
   builds with -opaque) every boxed [int64] crossing a module boundary
   allocates, and the key list, the [fold_left] closure and the stream
   record cost ~50 minor words per draw. Inlined within this module, a
   draw allocates nothing. The QCheck differential in
   test/test_rand_plan.ml pins these against [Splitmix.derive]. *)

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

(* One [Splitmix.derive] fold step. *)
let[@inline] step h k =
  mix64
    (Int64.logxor (Int64.mul h 0xFF51AFD7ED558CCDL) (Int64.of_int (k + 0x5851F42D)))

(* The first [Splitmix.next_int64] of a stream whose state is [h]. *)
let[@inline] first h = mix64 (Int64.add h 0x9E3779B97F4A7C15L)

(* The [\[stage; tag\]] steps every key of one draw kind starts with. *)
let[@inline] prefix t stage tag = step (step t.h0 stage) tag

let[@inline] key3 t stage tag x = step (prefix t stage tag) x

(* Each draw is written once, over its prefix [p]; the keyed form and
   the hoisted drawer below both call it. *)
let[@inline] bit_of p node = Int64.logand (first (step p node)) 1L = 1L

let[@inline] edge_bit_of p u v =
  let a = if u <= v then u else v and b = if u <= v then v else u in
  Int64.logand (first (step (step p a) b)) 1L = 1L

let[@inline] value_of p round node =
  Int64.to_int (Int64.shift_right_logical (first (step (step p round) node)) 2)

let node_bit t ~stage ~node = bit_of (prefix t stage 1) node
let edge_bit t ~stage ~u ~v = edge_bit_of (prefix t stage 2) u v
let node_value t ~stage ~round ~node = value_of (prefix t stage 3) round node

(* The drawers mix the prefix once and return a closure over it: 2-3
   mixes per draw instead of 4-5. Building a drawer allocates its
   closure, so the keyed forms above must not be written through them:
   they would allocate on every draw. *)
let node_bits t ~stage =
  let p = prefix t stage 1 in
  fun id -> bit_of p id

let edge_bits t ~stage =
  let p = prefix t stage 2 in
  fun ~u ~v -> edge_bit_of p u v

let node_values t ~stage =
  let p = prefix t stage 3 in
  fun ~round ~id -> value_of p round id

let node_int t ~stage ~node ~bound =
  Splitmix.int (Splitmix.of_key (key3 t stage 4 node)) bound

let node_radius t ~stage ~node ~p ~gamma =
  Splitmix.geometric_truncated (Splitmix.of_key (key3 t stage 5 node)) ~p ~gamma

let node_stream t ~stage ~node = Splitmix.of_key (key3 t stage 6 node)

(* The repository benchmark: three closed-loop workloads over the paths a
   user runs, each with output checks, and a traced mode that splits the
   same work into the library's layers.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   The last line of stdout is one JSON object
   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}: the
   end-to-end metrics with [--trace 0], the per-layer ones with
   [--trace 1]. Progress and failed checks go to stderr.

   Traced mode wraps the closures and records the benchmark hands to the
   library (Monte Carlo runner and check, kernel coins,
   [Maintain.algorithm]) and rebuilds a few entry points from their
   public parts ([Runners.measure], [Maintain.luby], the serve loop) so
   each layer's calls are timed from here. Every traced output is checked
   digest for digest against the untraced path. *)

module View = Mis_graph.View
module Splitmix = Mis_util.Splitmix
module Csr = Mis_sim.Csr
module Kernel = Mis_sim.Kernel
module Runtime = Mis_sim.Runtime
module Engine = Mis_sim.Runtime.Engine
module Rand_plan = Fairmis.Rand_plan
module Luby = Fairmis.Luby
module Fair_tree = Fairmis.Fair_tree
module Fair_tree_distributed = Fairmis.Fair_tree_distributed
module Montecarlo = Mis_stats.Montecarlo
module Empirical = Mis_stats.Empirical
module Parallel = Mis_stats.Parallel
module Config = Mis_exp.Config
module Workloads = Mis_exp.Workloads
module Runners = Mis_exp.Runners
module Churn = Mis_workload.Churn
module Event = Mis_dyn.Event
module Maintain = Mis_dyn.Maintain
module Serve = Mis_dyn.Serve

let now = Unix.gettimeofday
let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* ---------- output checks ---------- *)

(* [attempted] counts operations (trials, kernel runs, batches); a failed
   check marks the operations it covers as failed. *)
let attempted = ref 0
let failed = ref 0

let account ~units ok what =
  attempted := !attempted + units;
  if not ok then begin
    failed := !failed + units;
    log "check failed: %s" what
  end

(* A later check on operations already counted. *)
let recheck ~units ok what =
  if not ok then begin
    failed := min !attempted (!failed + units);
    log "check failed: %s" what
  end

let digest_of_ints a =
  let b = Buffer.create (Array.length a * 4) in
  Array.iter
    (fun x ->
      Buffer.add_string b (string_of_int x);
      Buffer.add_char b ',')
    a;
  Digest.to_hex (Digest.string (Buffer.contents b))

let digest_of_mask a = digest_of_ints (Array.map Bool.to_int a)

(* Output digests are pinned for [default_seed] only (pins.ml). Any
   other seed is checked by MIS validity, equal outputs across the passes
   of a repetition, traced-vs-untraced equality and, on the pooled
   workloads, domain-count invariance. *)
let default_seed = 1

(* ---------- end-to-end measurement ---------- *)

let percentile xs q =
  match Array.length xs with
  | 0 -> 0.
  | n ->
    let a = Array.copy xs in
    Array.sort compare a;
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d" Fun.id
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  float_of_int kb /. 1024.

(* ---------- host speed reference ---------- *)

(* The host is a shared VM. With the same code and inputs, memory-heavy
   code runs 10-40% faster or slower for minutes at a time, while a
   register-only loop holds within 5%. So the benchmark times a fixed
   memory-bound loop of its own (a dependent random walk over 32 MB and
   sweeps over 2 MB, both outside the OCaml heap) before each set-up,
   before each repetition's first call and after every half second of
   timed calls, never inside a timed call. It scales each timed call and
   set-up by [ref_nominal_s /. ref], so the end-to-end times read as on a
   host where the loop takes 40 ms. The loop shares no code, heap or
   collector work with the library, so a library change does not move
   it. The unscaled figures go to stderr. *)
let ref_nominal_s = 0.040

module BA = Bigarray.Array1

(* One random cycle (Sattolo's shuffle), so the walk visits every slot. *)
let ref_walk =
  lazy
    (let n = 1 lsl 22 in
     let a = BA.create Bigarray.int Bigarray.c_layout n in
     for i = 0 to n - 1 do BA.unsafe_set a i i done;
     let st = Random.State.make [| 17 |] in
     for i = n - 1 downto 1 do
       let j = Random.State.int st i in
       let t = BA.unsafe_get a i in
       BA.unsafe_set a i (BA.unsafe_get a j);
       BA.unsafe_set a j t
     done;
     a)

let ref_sweep = lazy (BA.create Bigarray.int Bigarray.c_layout (1 lsl 18))

let host_ref () =
  let a = Lazy.force ref_walk and b = Lazy.force ref_sweep in
  let t0 = now () in
  let p = ref 0 in
  for _ = 1 to 200_000 do
    p := BA.unsafe_get a !p
  done;
  let m = BA.dim b and acc = ref 0 in
  for r = 1 to 8 do
    for i = 0 to m - 1 do BA.unsafe_set b i (i + r) done;
    for i = 0 to m - 1 do acc := !acc + BA.unsafe_get b i done
  done;
  ignore (Sys.opaque_identity (!p + !acc));
  now () -. t0

type e2e = {
  mutable setups : float list;  (** Scaled seconds per set-up. *)
  mutable raw_setups : float list;
  mutable live : float list;  (** Live heap MB at the end of each repetition. *)
  mutable calls : float list;  (** Scaled seconds per call, timed from outside. *)
  mutable raw_calls : float list;
  mutable work : int;  (** Work units done inside timed calls. *)
  mutable busy : float;  (** Seconds inside timed calls. *)
  mutable scaled_busy : float;
  mutable refs : float list;  (** Reference loop times. *)
  mutable ref_s : float;  (** The latest one. *)
  mutable since_ref : float;  (** Timed seconds since it was taken. *)
}

let e2e =
  { setups = []; raw_setups = []; live = []; calls = []; raw_calls = [];
    work = 0; busy = 0.; scaled_busy = 0.; refs = []; ref_s = ref_nominal_s;
    since_ref = 0. }

let refresh_ref () =
  let r = host_ref () in
  e2e.refs <- r :: e2e.refs;
  e2e.ref_s <- r;
  e2e.since_ref <- 0.

let scale dt = dt *. ref_nominal_s /. e2e.ref_s

(* The heap the workload keeps live, after a full major collection. Unlike
   the resident peak, it does not depend on when the collector happened to
   run while the inputs were built. *)
let live_mb () =
  Gc.full_major ();
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1048576.

let record_call ~units dt =
  e2e.raw_calls <- dt :: e2e.raw_calls;
  e2e.calls <- scale dt :: e2e.calls;
  e2e.busy <- e2e.busy +. dt;
  e2e.scaled_busy <- e2e.scaled_busy +. scale dt;
  e2e.work <- e2e.work + units;
  e2e.since_ref <- e2e.since_ref +. dt;
  if e2e.since_ref >= 0.5 then refresh_ref ()

let timed_call ~units f =
  let t0 = now () in
  let x = f () in
  record_call ~units (now () -. t0);
  x

(* ---------- per-layer accumulators ---------- *)

(* Per-domain sums, so wrappers running on pool domains never share a
   cell. Slots: *)
let s_trial = 0
let s_trial_n = 1
let s_trial_words = 2
let s_verify = 3
let s_verify_n = 4
let s_csr = 5
let s_csr_words = 6
let s_exec = 7
let s_exec_n = 8
let s_messages = 9
let s_rounds = 10
let s_promoted = 11
let s_words = 12 (* minor words allocated inside any wrapper *)
let s_repair = 13
let nslots = 14

let registry = ref []
let registry_lock = Mutex.create ()

let cells =
  Domain.DLS.new_key (fun () ->
      let a = Array.make nslots 0. in
      Mutex.protect registry_lock (fun () -> registry := a :: !registry);
      a)

let add slot v =
  let a = Domain.DLS.get cells in
  a.(slot) <- a.(slot) +. v

let snapshot () =
  Mutex.protect registry_lock (fun () ->
      Array.init nslots (fun i ->
          List.fold_left (fun s a -> s +. a.(i)) 0. !registry))

(* [f ()] timed into [slot] and counted into [count]; its minor words go
   to [s_words] and, when given, to [words]. *)
let wrap ~slot ?count ?words f =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let x = f () in
  let dt = now () -. t0 in
  let dw = Gc.minor_words () -. w0 in
  add slot dt;
  Option.iter (fun c -> add c 1.) count;
  Option.iter (fun w -> add w dw) words;
  add s_words dw;
  x

let promoted () =
  let _, p, _ = Gc.counters () in
  p

(* A message-engine run, timed into the engine slots. *)
let wrap_exec f =
  let p0 = promoted () in
  let o = wrap ~slot:s_exec ~count:s_exec_n f in
  add s_promoted (promoted () -. p0);
  add s_messages (float_of_int o.Runtime.messages);
  add s_rounds (float_of_int o.Runtime.rounds);
  o

let wrap_csr f = wrap ~slot:s_csr ~words:s_csr_words f

(* Traced-run figures kept on the coordinating domain. *)
type layers = {
  mutable gen_s : float;
  mutable csr_setup_s : float;  (** Compile done in set-up (single-xl). *)
  mutable csr_setup_words : float;
  mutable coin_draws : float;
  mutable coin_s : float;
  mutable kernel_s : float;
  mutable kernel_rounds : float;
  mutable kernel_node_rounds : float;
  mutable section_s : float;  (** Wall of pool sections. *)
  mutable write_s : float;  (** JSONL write of the stream, in set-up. *)
  mutable parse_s : float;
  mutable lines : int;
  mutable apply_s : float;  (** [Maintain.apply_batch] wall in passes. *)
  mutable apply_walls : float list;
  mutable setup_apply_s : float;  (** The same in set-up (bootstrap). *)
  mutable repair_seconds : float;  (** Sum of [report.repair_seconds]. *)
  mutable check_s : float;
  mutable batches : int;
  mutable region_nodes : int;
  mutable attempts : int;
  mutable fulls : int;
  mutable measuring : bool;  (** Passes, not set-up: per-op figures count. *)
}

let lay =
  { gen_s = 0.; csr_setup_s = 0.; csr_setup_words = 0.; coin_draws = 0.;
    coin_s = 0.; kernel_s = 0.; kernel_rounds = 0.; kernel_node_rounds = 0.;
    section_s = 0.; write_s = 0.; parse_s = 0.; lines = 0; apply_s = 0.;
    apply_walls = []; setup_apply_s = 0.; repair_seconds = 0.; check_s = 0.;
    batches = 0; region_nodes = 0; attempts = 0; fulls = 0; measuring = false }

let elapsed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

let gen f =
  let x, dt = elapsed f in
  lay.gen_s <- lay.gen_s +. dt;
  x

let section f =
  let x, dt = elapsed f in
  lay.section_s <- lay.section_s +. dt;
  x

(* Coin cost per draw from tight loops over the public Rand_plan calls:
   (ns, minor words) per draw, for Luby values, node bits and edge bits. *)
type coin_cost = {
  value : float * float;
  bit : float * float;
  edge : float * float;
}

let calibrate () =
  let plan = Rand_plan.make 7 in
  let draws = 1_000_000 in
  let measure f =
    let w0 = Gc.minor_words () in
    let t0 = now () in
    let acc = ref 0 in
    for i = 1 to draws do
      acc := !acc lxor f i
    done;
    let dt = now () -. t0 in
    let dw = Gc.minor_words () -. w0 in
    ignore (Sys.opaque_identity !acc);
    (1e9 *. dt /. float_of_int draws, dw /. float_of_int draws)
  in
  { value =
      measure (fun i ->
          Rand_plan.node_value plan ~stage:Rand_plan.Stage.luby_main
            ~round:(i land 63) ~node:i);
    bit =
      measure (fun i ->
          Bool.to_int
            (Rand_plan.node_bit plan ~stage:Rand_plan.Stage.fair_tree_s1 ~node:i));
    edge =
      measure (fun i ->
          Bool.to_int
            (Rand_plan.edge_bit plan ~stage:Rand_plan.Stage.fair_tree_cut ~u:i
               ~v:(i + 1))) }

let coin_cost = lazy (calibrate ())

let safe_div a b = if b = 0. then 0. else a /. b

type traced = {
  coins : coin_cost;
  d : float array;  (** Slot deltas over the traced passes. *)
  units : int;  (** Work units of the traced passes. *)
  words : float;  (** Minor words of the traced passes, all domains. *)
  major : int;
  traced_s : float;
      (** Wall of the traced repetition: set-up plus timed calls (output
          checks excluded). *)
  pass_s : float;
  untraced_pass_s : float;
  attributed : float;
}

(* Every per-layer metric; zero where the workload bypasses the layer. *)
let layer_metrics ~domains t =
  let d = t.d and f = float_of_int in
  let pool_busy = d.(s_trial) +. d.(s_verify) +. d.(s_csr) +. d.(s_exec) in
  let pool_capacity = lay.section_s *. f domains in
  let unattributed = t.traced_s -. t.attributed in
  let share = safe_div unattributed t.traced_s in
  if share > 0.10 then
    log "flag: unattributed time is %.1f%% of the traced wall (over 10%%)"
      (100. *. share);
  let per_batch x = safe_div x (f lay.batches) in
  [ ("workload.gen_s", lay.gen_s, "s");
    ("csr.compile_s", lay.csr_setup_s +. d.(s_csr), "s");
    ("csr.compile_words", lay.csr_setup_words +. d.(s_csr_words), "words");
    ("coins.draws", lay.coin_draws, "count");
    ("coins.self_s", lay.coin_s, "s");
    ("coins.ns_per_draw", fst t.coins.value, "ns");
    ("coins.words_per_draw", snd t.coins.value, "words");
    ("kernel.self_s", lay.kernel_s, "s");
    ("kernel.rounds", lay.kernel_rounds, "count");
    ("kernel.ns_per_node_round",
     1e9 *. safe_div lay.kernel_s lay.kernel_node_rounds, "ns");
    ("trial.ns", 1e9 *. safe_div d.(s_trial) d.(s_trial_n), "ns");
    ("trial.minor_words", safe_div d.(s_trial_words) d.(s_trial_n), "words");
    ("verify.ns", 1e9 *. safe_div d.(s_verify) d.(s_verify_n), "ns");
    ("pool.busy_share", safe_div pool_busy pool_capacity, "ratio");
    ("pool.wait_s", Float.max 0. (pool_capacity -. pool_busy), "s");
    ("engine.exec_s", d.(s_exec), "s");
    ("engine.messages", d.(s_messages), "count");
    ("engine.ns_per_msg", 1e9 *. safe_div d.(s_exec) d.(s_messages), "ns");
    ("engine.promoted_words_per_msg",
     safe_div d.(s_promoted) d.(s_messages), "words");
    ("engine.rounds", safe_div d.(s_rounds) d.(s_exec_n), "count");
    ("event.parse_ns", 1e9 *. safe_div lay.parse_s (f lay.lines), "ns");
    ("maintain.apply_ms",
     1000. *. per_batch (lay.apply_s -. lay.repair_seconds), "ms");
    ("maintain.apply_batch_ms_p99",
     1000. *. percentile (Array.of_list lay.apply_walls) 0.99, "ms");
    ("maintain.extract_ms",
     1000. *. per_batch (lay.repair_seconds -. d.(s_repair)), "ms");
    ("maintain.check_ms", 1000. *. lay.check_s, "ms");
    ("repair.run_ms", 1000. *. per_batch d.(s_repair), "ms");
    ("maintain.region_nodes", per_batch (f lay.region_nodes), "count");
    ("maintain.attempts_per_batch", per_batch (f lay.attempts), "ratio");
    ("maintain.accept_ratio", safe_div (f lay.batches) (f lay.attempts), "ratio");
    ("maintain.full_recompute_share", per_batch (f lay.fulls), "ratio");
    ("gc.minor_words_per_trial", safe_div t.words (f t.units), "words");
    ("gc.major_collections", f t.major, "count");
    ("gc.peak_rss_mb", peak_rss_mb (), "MB");
    ("host.ref_ms", 1000. *. percentile (Array.of_list e2e.refs) 0.5, "ms");
    ("unattributed_s", unattributed, "s");
    ("unattributed_share", share, "ratio");
    ("trace.overhead", safe_div t.pass_s t.untraced_pass_s, "ratio") ]

(* ---------- workload driver ---------- *)

(* A workload: [setup ~seed] builds the inputs from a seed (generator
   calls go through [gen]); [pass ~traced ~k env] makes one timed call
   (serve: one stream of timed calls), checks its outputs and returns
   their digests; [invariance env ~first] re-runs the first pass at one
   domain on the pooled workloads; [attributed] sums the traced layer
   self times on the coordinator's timeline. *)
type 'env workload = {
  name : string;
  setup : seed:int -> traced:bool -> 'env;
  pass : traced:bool -> k:int -> 'env -> string list;
  same_passes : bool;  (** Every pass of a set-up computes the same. *)
  single_pass : bool;  (** A traced repetition makes one pass. *)
  repetitions : int;  (** Set-ups in an untraced run. *)
  invariance : 'env -> first:string list -> unit;
  release : 'env -> unit;
  domains : int;
  attributed : unit -> float;
}

(* An untraced run makes [w.repetitions] repetitions, each a fresh set-up
   followed by passes until the repetition has measured its share of the
   budget. Repetition [r] takes its inputs from [rep_seed seed r], so a
   run averages over several input draws and heap layouts instead of
   repeating one. Throughput is taken over the whole run: on a shared
   host, speed drifts over seconds, and the longest average moves least
   between runs. *)
let rep_seed seed r = seed + (100_003 * r)

let check_pinned w ~seed ~units digests =
  if seed = default_seed then
    let pins = Option.value ~default:[] (List.assoc_opt w.name Pins.pins) in
    (* A traced run checks its one repetition against the first pin. *)
    if List.filteri (fun i _ -> i < List.length digests) pins <> digests then
      recheck ~units false
        (Printf.sprintf "%s: first-pass digests of each repetition differ from \
                         the pinned ones (perfbench/pins.ml); this run's are:\n%s"
           w.name
           (String.concat "\n"
              (List.map (fun d -> "[ " ^ String.concat "; " d ^ " ]") digests)))

let run_untraced w ~seed ~seconds =
  let firsts = ref [] in
  let repetitions = w.repetitions in
  for r = 0 to repetitions - 1 do
    Gc.compact ();
    refresh_ref ();
    let env, dt =
      elapsed (fun () -> w.setup ~seed:(rep_seed seed r) ~traced:false)
    in
    e2e.raw_setups <- dt :: e2e.raw_setups;
    e2e.setups <- scale dt :: e2e.setups;
    let busy0 = e2e.busy in
    refresh_ref ();
    let share = seconds /. float_of_int repetitions in
    (* Passes stop at the count that brings the measured time nearest to
       the share, so long calls do not overrun the budget. *)
    let rec go k =
      let before = e2e.busy in
      let digests = w.pass ~traced:false ~k env in
      if k = 1 then firsts := digests :: !firsts
      else if w.same_passes then
        recheck ~units:1 (digests = List.hd !firsts)
          (Printf.sprintf "pass %d differs from pass 1" k);
      let last = e2e.busy -. before in
      if e2e.busy -. busy0 +. (last /. 2.) < share then go (k + 1)
    in
    go 1;
    e2e.live <- live_mb () :: e2e.live;
    if r = repetitions - 1 then w.invariance env ~first:(List.hd !firsts);
    w.release env
  done;
  check_pinned w ~seed ~units:(!attempted / repetitions) (List.rev !firsts);
  let median l = percentile (Array.of_list l) 0.5 in
  log "unscaled: setup_s=%.4g work_per_s=%.4g call_ms_p50=%.4g; reference \
       loop %.1f ms (median of %d)"
    (median e2e.raw_setups)
    (float_of_int e2e.work /. e2e.busy)
    (1000. *. median e2e.raw_calls)
    (1000. *. median e2e.refs) (List.length e2e.refs);
  [ ("setup_s", median e2e.setups, "s");
    ("work_per_s", float_of_int e2e.work /. e2e.scaled_busy, "1/s");
    ("call_ms_p50", 1000. *. median e2e.calls, "ms");
    ("live_heap_mb", median e2e.live, "MB") ]

(* One untraced repetition and one traced repetition of the same passes
   on the run's seed; the traced outputs must equal the untraced ones
   digest for digest. Per-operation figures cover the traced passes; the
   layer accounting covers the traced set-up and passes. *)
let run_traced w ~seed ~seconds =
  let coins = Lazy.force coin_cost in
  refresh_ref ();
  let env = w.setup ~seed ~traced:false in
  let reference = Hashtbl.create 8 in
  let busy0 = e2e.busy in
  let rec go k =
    Hashtbl.replace reference k (w.pass ~traced:false ~k env);
    if (not w.single_pass) && e2e.busy -. busy0 < seconds /. 2. then go (k + 1)
    else k
  in
  let passes = go 1 in
  let untraced_pass_s = e2e.busy -. busy0 in
  w.release env;
  Gc.compact ();
  lay.gen_s <- 0.;
  lay.write_s <- 0.;
  let env, setup_s = elapsed (fun () -> w.setup ~seed ~traced:true) in
  lay.measuring <- true;
  let before = snapshot () in
  let own0 = (Domain.DLS.get cells).(s_words) in
  let w0 = Gc.minor_words () in
  let maj0 = (Gc.quick_stat ()).Gc.major_collections in
  let work0 = e2e.work and busy0 = e2e.busy in
  for k = 1 to passes do
    let digests = w.pass ~traced:true ~k env in
    recheck ~units:1 (Hashtbl.find reference k = digests)
      (Printf.sprintf "traced pass %d differs from the untraced pass" k)
  done;
  let pass_s = e2e.busy -. busy0 in
  let after = snapshot () in
  let own = (Domain.DLS.get cells).(s_words) -. own0 in
  let others = after.(s_words) -. before.(s_words) -. own in
  let t =
    { coins;
      d = Array.init nslots (fun i -> after.(i) -. before.(i));
      units = e2e.work - work0;
      words = Gc.minor_words () -. w0 +. others;
      major = (Gc.quick_stat ()).Gc.major_collections - maj0;
      traced_s = setup_s +. pass_s; pass_s; untraced_pass_s;
      attributed = w.attributed () }
  in
  w.release env;
  check_pinned w ~seed ~units:!attempted [ Hashtbl.find reference 1 ];
  layer_metrics ~domains:w.domains t

(* Pooled workloads start each repetition from a fresh process's state:
   the worker domains are spawned in set-up and joined in [release]. *)
let warm_pool domains =
  Parallel.map_reduce ~domains ~chunk:1 ~tasks:domains
    ~init:(fun () -> ())
    ~merge:(fun () () -> ())
    (fun () _ -> ())

(* ---------- montecarlo-table1 ---------- *)

(* Table I through Runners.measure: the six trees (NYC small), Luby and
   FairTree, [mc_trials] trials each, at two domains. *)
let mc_trials = 100
let mc_domains = 2
let mc_units = 2 * 6 * mc_trials

let mc_config ~seed ~domains =
  { Config.trials = mc_trials; seed; domains = Some domains;
    nyc = Config.Nyc_small; full = false }

(* Forces every topology so generation counts in set-up. The four
   complete/alternating trees are module-level lazies in [Workloads]
   (built once per process, ~4 ms together); the two WAP trees are
   rebuilt on every call and are >99% of the generation time. *)
let mc_setup ~seed =
  List.map
    (fun (t : Workloads.tree) ->
      (t.Workloads.name, View.full (gen (fun () -> Lazy.force t.Workloads.graph))))
    (Workloads.table1_trees (mc_config ~seed ~domains:mc_domains))

(* Runners.measure rebuilt from Montecarlo.estimate, runner and check
   wrapped. *)
let mc_traced_measure cfg view (r : Runners.t) =
  section (fun () ->
      Montecarlo.estimate
        ~check:(fun mis ->
          wrap ~slot:s_verify ~count:s_verify_n (fun () ->
              Fairmis.Mis.verify ~name:r.Runners.name view mis))
        (Config.montecarlo cfg) view
        (fun ~seed ->
          wrap ~slot:s_trial ~count:s_trial_n ~words:s_trial_words (fun () ->
              r.Runners.run view ~seed)))

(* One Table I pass: per (tree, algorithm), the join-count digest, after
   checking the estimate ran its full trial count (a memoized or cached
   result cannot pass for a fast one). Every trial is MIS-verified inside
   [measure]; a raise fails the cell. *)
let mc_pass ~cfg ~measure trees =
  List.concat_map
    (fun (tree, view) ->
      List.map
        (fun (r : Runners.t) ->
          let cell = Printf.sprintf "%s/%s" tree r.Runners.name in
          match measure cfg view r with
          | e ->
            let trials = Empirical.trials e in
            account ~units:mc_trials (trials = mc_trials)
              (Printf.sprintf "%s ran %d trials" cell trials);
            let joins =
              Array.map
                (fun f -> int_of_float (Float.round (f *. float_of_int trials)))
                (Empirical.frequencies e)
            in
            cell ^ "=" ^ digest_of_ints joins
          | exception Fairmis.Mis.Invalid msg ->
            account ~units:mc_trials false msg;
            cell ^ "=invalid")
        [ Runners.luby; Runners.fair_tree ])
    trees

let montecarlo =
  { name = "montecarlo-table1";
    setup =
      (fun ~seed ~traced:_ ->
        warm_pool mc_domains;
        (seed, mc_setup ~seed));
    pass =
      (fun ~traced ~k:_ (seed, trees) ->
        let cfg = mc_config ~seed ~domains:mc_domains in
        let measure = if traced then mc_traced_measure else Runners.measure in
        timed_call ~units:mc_units (fun () -> mc_pass ~cfg ~measure trees));
    same_passes = true;
    single_pass = false;
    repetitions = 4;
    invariance =
      (fun (seed, trees) ~first ->
        let serial =
          mc_pass ~cfg:(mc_config ~seed ~domains:1) ~measure:Runners.measure trees
        in
        recheck ~units:mc_units (serial = first)
          "table1 digests differ between 1 and 2 domains");
    release = (fun _ -> Parallel.shutdown ());
    domains = mc_domains;
    attributed = (fun () -> lay.gen_s +. lay.section_s) }

(* ---------- single-xl ---------- *)

(* One random_attachment_xl tree at n = 10^6, kernel built in set-up;
   pass k runs kernel Luby then kernel FairTree with seed k, serially. *)
let xl_n = 1_000_000

let xl_setup ~seed ~traced =
  let g =
    gen (fun () ->
        Mis_workload.Trees.random_attachment_xl (Splitmix.of_seed seed) ~n:xl_n)
  in
  let view = View.full g in
  let kernel =
    if not traced then Kernel.create view
    else begin
      let mi0, pr0, ma0 = Gc.counters () in
      let k, dt = elapsed (fun () -> Kernel.of_csr (Csr.compile view)) in
      let mi1, pr1, ma1 = Gc.counters () in
      lay.csr_setup_s <- lay.csr_setup_s +. dt;
      lay.csr_setup_words <-
        lay.csr_setup_words +. (mi1 -. mi0) +. (ma1 -. ma0) -. (pr1 -. pr0);
      k
    end
  in
  (view, kernel)

(* The kernel calls of Luby.run_kernel_on / Fair_tree_distributed
   .run_kernel_on, rebuilt with counting coin closures. Coin time is the
   draw count times the calibrated per-draw cost; kernel time is the
   call's wall minus that. *)
let xl_traced_kernel coins kernel ~seed ~fair =
  let plan = Rand_plan.make seed in
  let values = ref 0 and bits = ref 0 and edges = ref 0 in
  let value ~stage ~round ~id =
    incr values;
    Rand_plan.node_value plan ~stage ~round ~node:id
  in
  let bit stage id =
    incr bits;
    Rand_plan.node_bit plan ~stage ~node:id
  in
  let n = View.n (Kernel.view kernel) in
  let o, dt =
    elapsed (fun () ->
        if not fair then
          Kernel.luby ~value_of:(value ~stage:Rand_plan.Stage.luby_main) kernel
        else
          let gamma = Fair_tree.gamma_default ~n in
          let coins =
            { Kernel.cut =
                (fun ~u ~v ->
                  incr edges;
                  Rand_plan.edge_bit plan ~stage:Rand_plan.Stage.fair_tree_cut
                    ~u ~v);
              bit1 = bit Rand_plan.Stage.fair_tree_s1;
              bit2 = bit Rand_plan.Stage.fair_tree_s2;
              bit3 = bit Rand_plan.Stage.fair_tree_s3;
              luby_value = value ~stage:Rand_plan.Stage.fair_tree_luby }
          in
          (* Fair_tree_distributed's round budget: 6γ + 6 + 64(⌈lg n⌉ + 2). *)
          let max_rounds = (6 * gamma) + 6 + Kernel.default_max_rounds n + 64 in
          Kernel.fair_tree ~max_rounds ~gamma ~coins kernel)
  in
  let f = float_of_int in
  let coin_s =
    1e-9
    *. ((f !values *. fst coins.value) +. (f !bits *. fst coins.bit)
       +. (f !edges *. fst coins.edge))
  in
  lay.coin_draws <- lay.coin_draws +. f (!values + !bits + !edges);
  lay.coin_s <- lay.coin_s +. coin_s;
  lay.kernel_s <- lay.kernel_s +. (dt -. coin_s);
  lay.kernel_rounds <- lay.kernel_rounds +. f o.Kernel.rounds;
  lay.kernel_node_rounds <-
    lay.kernel_node_rounds
    +. (f (Csr.nslots (Kernel.csr kernel)) *. f o.Kernel.rounds);
  o

let single_xl =
  { name = "single-xl";
    setup = xl_setup;
    pass =
      (fun ~traced ~k (view, kernel) ->
        let luby, fair =
          timed_call ~units:2 (fun () ->
              if traced then
                let c = Lazy.force coin_cost in
                ( xl_traced_kernel c kernel ~seed:k ~fair:false,
                  xl_traced_kernel c kernel ~seed:k ~fair:true )
              else
                let plan = Rand_plan.make k in
                ( Luby.run_kernel_on kernel plan,
                  Fair_tree_distributed.run_kernel_on kernel plan ))
        in
        List.map
          (fun (name, o) ->
            account ~units:1
              (Array.for_all Fun.id o.Kernel.decided
              && Fairmis.Mis.is_mis view o.Kernel.output)
              (Printf.sprintf "%s seed %d: not an MIS" name k);
            Printf.sprintf "%s/%d=%s" name k (digest_of_mask o.Kernel.output))
          [ ("luby", luby); ("fairtree", fair) ]);
    same_passes = false;
    single_pass = false;
    repetitions = 5;
    invariance = (fun _ ~first:_ -> ());
    release = ignore;
    domains = 1;
    attributed =
      (fun () -> lay.gen_s +. lay.csr_setup_s +. lay.coin_s +. lay.kernel_s) }

(* ---------- serve-churn ---------- *)

(* A churn stream at 8x the campus default (capacity, initial cloud,
   arrivals, link flaps), written to JSONL in set-up and served by one
   client. crash_prob is lowered from 0.1 to 0.01: at 0.1 crash-stopped
   slots (never reused) empty the 8x universe by batch ~450, so most of a
   1000-batch stream would be near-empty batches. *)
let churn_params =
  { Churn.default with
    capacity = 4096; initial = 2560; arrival_mean = 96.; flap_mean = 64.;
    crash_prob = 0.01; batches = 1000 }

let scratch_dir = ".perfbench"

type serve_env = {
  path : string;
  config : Maintain.config;
  mutable maintainer : Maintain.t;
  mutable ic : in_channel;
}

(* Maintain.luby rebuilt on Csr.compile + Engine.of_csr + exec, with the
   whole region run timed as repair. *)
let traced_luby =
  { Maintain.luby with
    Maintain.alg_run =
      (fun ?tracer view ~ids ~seed ->
        wrap ~slot:s_repair (fun () ->
            let plan = Rand_plan.make seed in
            let stage = Rand_plan.Stage.luby_main in
            let csr = wrap_csr (fun () -> Csr.compile ~ids view) in
            wrap_exec (fun () ->
                Engine.exec ?tracer
                  ~rng_of:(fun i -> Rand_plan.node_stream plan ~stage ~node:ids.(i))
                  (Engine.of_csr csr) (Luby.program plan ~stage)))) }

(* Apply one parsed batch, timed into the maintain layer. *)
let traced_apply m events =
  let r, dt = elapsed (fun () -> Maintain.apply_batch m events) in
  if not lay.measuring then lay.setup_apply_s <- lay.setup_apply_s +. dt
  else begin
    lay.apply_s <- lay.apply_s +. dt;
    lay.apply_walls <- dt :: lay.apply_walls;
    lay.repair_seconds <- lay.repair_seconds +. r.Maintain.repair_seconds;
    lay.batches <- lay.batches + 1;
    lay.region_nodes <- lay.region_nodes + Array.length r.Maintain.region_nodes;
    lay.attempts <- lay.attempts + r.Maintain.attempts;
    if r.Maintain.full_recompute then lay.fulls <- lay.fulls + 1
  end;
  r

(* The serve loop's parsing rebuilt on Event.parse_line, batches flushed
   on markers; [stop_after] bounds the batches read (bootstrap). *)
let traced_serve ?stop_after m ic =
  let pending = ref [] and served = ref 0 and malformed = ref 0 in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | line when line = Event.batch_marker ->
      let r = traced_apply m (List.rev !pending) in
      pending := [];
      ignore r;
      incr served;
      if Some !served <> stop_after then loop ()
    | line ->
      let ev, dt = elapsed (fun () -> Event.parse_line line) in
      lay.parse_s <- lay.parse_s +. dt;
      lay.lines <- lay.lines + 1;
      (match ev with
      | Ok ev -> pending := ev :: !pending
      | Error _ -> incr malformed);
      loop ()
  in
  loop ();
  (!served, !malformed)

(* A maintainer on the stream with the bootstrap batch served. That batch
   is a full computation: set-up, not a served batch. *)
let serve_open ~traced config path =
  let m = Maintain.create ~config ~capacity:churn_params.Churn.capacity () in
  let ic = open_in path in
  if traced then ignore (traced_serve ~stop_after:1 m ic)
  else
    ignore
      (Serve.run ~batch_size:max_int ~max_batches:1 ~log:(log "%s") m ic);
  (m, ic)

let serve_setup ~seed ~traced =
  let stream =
    gen (fun () -> Churn.generate (Splitmix.of_seed seed) churn_params)
  in
  if not (Sys.file_exists scratch_dir) then Sys.mkdir scratch_dir 0o755;
  let path =
    Filename.concat scratch_dir (Printf.sprintf "churn-%d.jsonl" (Unix.getpid ()))
  in
  let (), dt =
    elapsed (fun () ->
        Out_channel.with_open_text path (fun oc -> Churn.write_jsonl oc stream))
  in
  lay.write_s <- lay.write_s +. dt;
  let config =
    { Maintain.default_config with
      strict = true; seed;
      algorithm = (if traced then traced_luby else Maintain.luby) }
  in
  let maintainer, ic = serve_open ~traced config path in
  { path; config; maintainer; ic }

(* Untraced passes after the first serve the same stream again on a fresh
   maintainer. Its bootstrap is not timed: set-up time counts once per
   repetition. A traced repetition makes one pass. *)
let serve_reopen env =
  close_in env.ic;
  let maintainer, ic = serve_open ~traced:false env.config env.path in
  env.maintainer <- maintainer;
  env.ic <- ic

let serve_release env =
  close_in_noerr env.ic;
  (try Sys.remove env.path with Sys_error _ -> ());
  try Sys.rmdir scratch_dir with Sys_error _ -> ()

(* Batches are flushed only by the stream's markers ([batch_size] is
   unbounded), so each served batch is one churn batch. Latency is timed
   from outside, callback to callback. *)
let serve_pass ~traced env =
  let m = env.maintainer in
  let served, malformed =
    if traced then begin
      let (served, _) as r, dt = elapsed (fun () -> traced_serve m env.ic) in
      record_call ~units:served dt;
      r
    end
    else begin
      let last = ref (now ()) in
      let on_batch (_ : Maintain.report) =
        let t = now () in
        record_call ~units:1 (t -. !last);
        last := now ()
      in
      let stats = Serve.run ~batch_size:max_int ~on_batch ~log:(log "%s") m env.ic in
      (stats.Serve.batches, stats.Serve.malformed)
    end
  in
  let valid, dt = elapsed (fun () -> Maintain.check m) in
  if traced then lay.check_s <- lay.check_s +. dt;
  account ~units:served
    (malformed = 0 && served = churn_params.Churn.batches && Result.is_ok valid)
    (Printf.sprintf "serve: %d batches, %d malformed, final check %s" served
       malformed
       (match valid with Ok () -> "ok" | Error e -> e));
  [ Printf.sprintf "batches=%d mis=%s" served (digest_of_mask (Maintain.mis m)) ]

let serve_churn =
  { name = "serve-churn";
    setup = serve_setup;
    pass =
      (fun ~traced ~k env ->
        if k > 1 then serve_reopen env;
        try serve_pass ~traced env
        with Maintain.Invariant_violation msg ->
          account ~units:churn_params.Churn.batches false msg;
          [ "invariant violation" ]);
    same_passes = true;
    single_pass = true;
    repetitions = 3;
    invariance = (fun _ ~first:_ -> ());
    release = serve_release;
    domains = 1;
    attributed =
      (fun () ->
        lay.gen_s +. lay.write_s +. lay.parse_s +. lay.setup_apply_s
        +. lay.apply_s +. lay.check_s) }

(* ---------- main ---------- *)

let workloads = [ "montecarlo-table1"; "single-xl"; "serve-churn" ]

let print_result metrics =
  let metric (name, value, unit) =
    let value = if Float.is_finite value then value else 0. in
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0 && !attempted > 0)
    (max 1 !attempted) !failed
    (String.concat ", " (List.map metric metrics))

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 10
  and trace = ref 0 in
  let spec =
    [ ("--workload", Arg.Set_string workload, " " ^ String.concat " | " workloads);
      ("--seed", Arg.Set_int seed, " input seed (default 1)");
      ("--seconds", Arg.Set_int seconds, " measured seconds per run");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer") ]
  in
  let usage = "bench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let seconds = float_of_int !seconds and seed = !seed in
  (* Mis_obs.Prof reads its env flags through plain lazies; if pool tasks
     are the first to consult them, two domains can force one at once and
     raise CamlinternalLazy.Undefined. Forcing them here keeps that
     library race out of the measurements. *)
  ignore (Mis_obs.Prof.enabled ());
  let traced = !trace = 1 in
  let run w =
    if traced then run_traced w ~seed ~seconds else run_untraced w ~seed ~seconds
  in
  let metrics =
    match !workload with
    | "montecarlo-table1" -> run montecarlo
    | "single-xl" -> run single_xl
    | "serve-churn" -> run serve_churn
    | w ->
      Printf.eprintf "unknown workload %S; expected one of: %s\n" w
        (String.concat ", " workloads);
      exit 2
  in
  Parallel.shutdown ();
  print_result metrics

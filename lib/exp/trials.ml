module Parallel = Mis_stats.Parallel
module Fairness = Mis_obs.Fairness

type spec = {
  trials : int;
  seed : int;
  domains : int option;
}

let of_config ?trials (cfg : Config.t) =
  { trials = (match trials with Some t -> t | None -> cfg.Config.trials);
    seed = cfg.Config.seed;
    domains = cfg.Config.domains }

(* [ctx ()] runs inside [Parallel.map_reduce]'s per-chunk [init], i.e. on
   the claiming domain, once per chunk — the hook that lets a compiled
   simulation engine (or any other reusable scratch) be built once and
   reused for the chunk's whole run of trials. The context rides along as
   the first component of the accumulator pair and is dropped at the
   merge, so determinism is untouched: merges only combine the 'acc
   halves, in chunk order as always. *)
let fold_ctx ?chunk ?obs spec ~ctx ~init ~trial ~merge =
  if spec.trials < 1 then invalid_arg "Trials.fold: trials";
  snd
    (Parallel.map_reduce ?domains:spec.domains ?chunk ?obs ~tasks:spec.trials
       ~init:(fun () -> (ctx (), init ()))
       ~merge:(fun (c, a) (_, b) -> (c, merge a b))
       (fun (c, acc) i -> trial c acc ~seed:(spec.seed + i)))

let fold ?chunk ?obs spec ~init ~trial ~merge =
  fold_ctx ?chunk ?obs spec
    ~ctx:(fun () -> ())
    ~init
    ~trial:(fun () acc ~seed -> trial acc ~seed)
    ~merge

let counts ?check ?obs spec ~n instantiate =
  Mis_stats.Montecarlo.run_ctx ?check ?obs
    { Mis_stats.Montecarlo.trials = spec.trials; base_seed = spec.seed;
      domains = spec.domains }
    ~n ~ctx:instantiate
    (fun run ~seed -> run ~seed)

let fairness_ctx ?chunk ?obs spec ~n ~ctx trial =
  fold_ctx ?chunk ?obs spec ~ctx
    ~init:(fun () -> Fairness.create ~n)
    ~trial
    ~merge:(fun a b ->
      Fairness.merge a b;
      a)

let fairness ?chunk ?obs spec ~n trial =
  fairness_ctx ?chunk ?obs spec ~n
    ~ctx:(fun () -> ())
    (fun () acc ~seed -> trial acc ~seed)

let fairness_runner ?chunk ?obs spec ~n instantiate =
  fairness_ctx ?chunk ?obs spec ~n ~ctx:instantiate (fun run acc ~seed ->
      Fairness.record acc ~in_mis:(run ~seed))

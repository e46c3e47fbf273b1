module Prof = Mis_obs.Prof

(* Data-parallel execution backend: the core programs expressed as flat
   array sweeps over the compiled CSR instead of message passing — the
   omega_h / GraphBLAS MIS style. No inbox is ever allocated; per-round
   work is a frontier scan with staged offers, so steady-state execution
   allocates nothing beyond the per-run outcome arrays.

   The contract with [Runtime.Engine] is bit-identity on a perfect
   network: same outputs, same per-node decision round, same [rounds]
   count (including the [max_rounds] cutoff behavior). The sweeps below
   therefore simulate the *synchronous* round structure exactly:

   - flood-max is monotone and idempotent, so a changed-node frontier
     with offers staged against the previous round's values reproduces
     each synchronous round (an unchanged sender's offer was already
     folded the round before);
   - BFS adoption only ever improves a node's (lead, depth) key, and
     equal keys carry equal bits (the bit travels unchanged from the
     lead), so the same staging argument applies;
   - an empty frontier is a fixpoint, so breaking early is equivalent to
     running the remaining no-op rounds — but a stage never runs *more*
     than its [gamma] rounds, because the flood may not have converged. *)

type outcome = {
  output : bool array;
  decided : bool array;
  decide_round : int array;
  rounds : int;
}

let ceil_log2 n =
  let rec loop k acc = if acc >= n then k else loop (k + 1) (2 * acc) in
  loop 0 1

let default_max_rounds n = 64 + (64 * ceil_log2 (max n 2))

(* Scratch for the Luby phase loop, cached across runs. All arrays are
   indexed by slot; [l_front]/[l_winners] hold slot lists. *)
type luby_scratch = {
  l_value : int array;
  l_alive : bool array;
  l_front : int array;
  l_winners : int array;
}

(* Scratch for the FairTree stage pipeline. [f_allowed] is indexed by
   CSR adjacency entry; everything else by slot. [f_obest] /
   [f_olead]/[f_odepth]/[f_obit] stage the current round's incoming
   offers ([f_inext] marks staged slots, reset on apply, [f_touch]
   lists them). *)
type ft_scratch = {
  f_best : int array;
  f_lead : int array;
  f_depth : int array;
  f_bit : bool array;
  f_obest : int array;
  f_olead : int array;
  f_odepth : int array;
  f_obit : bool array;
  f_inext : bool array;
  f_touch : int array;
  f_front : int array;
  f_front2 : int array;
  f_allowed : bool array;
  f_all : bool array;  (* constant all-true participant mask *)
  f_pdeg : int array;
  f_i1 : bool array;
  f_i2 : bool array;
  f_unc : bool array;
  f_i3 : bool array;
  f_i4 : bool array;
}

type t = {
  csr : Csr.t;
  mutable luby_scr : luby_scratch option;
  mutable ft_scr : ft_scratch option;
}

let of_csr csr = { csr; luby_scr = None; ft_scr = None }
let create ?ids view = of_csr (Csr.compile ?ids view)
let view t = Csr.view t.csr
let csr t = t.csr

let luby_scratch t =
  match t.luby_scr with
  | Some s -> s
  | None ->
    let k = max 1 (Csr.nslots t.csr) in
    let s =
      { l_value = Array.make k 0; l_alive = Array.make k false;
        l_front = Array.make k 0; l_winners = Array.make k 0 }
    in
    t.luby_scr <- Some s;
    s

let ft_scratch t =
  match t.ft_scr with
  | Some s -> s
  | None ->
    let k = max 1 (Csr.nslots t.csr) in
    let e = Array.length t.csr.Csr.adj_slot in
    let s =
      { f_best = Array.make k 0; f_lead = Array.make k (-1);
        f_depth = Array.make k (-1); f_bit = Array.make k false;
        f_obest = Array.make k 0; f_olead = Array.make k (-1);
        f_odepth = Array.make k 0; f_obit = Array.make k false;
        f_inext = Array.make k false; f_touch = Array.make k 0;
        f_front = Array.make k 0; f_front2 = Array.make k 0;
        f_allowed = Array.make e false; f_all = Array.make k true;
        f_pdeg = Array.make k 0; f_i1 = Array.make k false;
        f_i2 = Array.make k false; f_unc = Array.make k false;
        f_i3 = Array.make k false; f_i4 = Array.make k false }
    in
    t.ft_scr <- Some s;
    s

(* One Luby execution over the frontier [scr.l_front.(0 .. flen-1)]
   (slots, in slot order; [scr.l_alive] must mark exactly those slots).
   Phase [p] of the message protocol spans rounds [base + 3p ..
   base + 3p + 2]: values broadcast at [base + 3p], winners decide at
   [base + 3p + 1], covered neighbors at [base + 3p + 2]. Decisions past
   [max_rounds] do not happen and the run reports [rounds = max_rounds],
   mirroring the engine's cutoff. Returns the last executed round. *)
let run_luby_phases ~csr ~scr ~value_of ~base ~max_rounds ~flen:flen0
    ~undecided:undec0 ~output ~decided ~decide_round =
  let adj_off = csr.Csr.adj_off and adj_slot = csr.Csr.adj_slot in
  let active = csr.Csr.active and ids = csr.Csr.ids in
  let alive = scr.l_alive and value = scr.l_value in
  let front = scr.l_front and winners = scr.l_winners in
  let flen = ref flen0 and undecided = ref undec0 in
  let phase = ref 0 in
  let rounds = ref base in
  let stop = ref false in
  while (not !stop) && !undecided > 0 do
    let p = !phase in
    let r_win = base + (3 * p) + 1 in
    let r_cov = base + (3 * p) + 2 in
    if r_win > max_rounds then begin
      rounds := max_rounds;
      stop := true
    end
    else begin
      for i = 0 to !flen - 1 do
        let s = front.(i) in
        value.(s) <- value_of ~round:p ~id:ids.(active.(s))
      done;
      (* Winner scan over the pre-marking snapshot: a node wins when its
         (value, id) strictly beats every live neighbor's. *)
      let wlen = ref 0 in
      for i = 0 to !flen - 1 do
        let s = front.(i) in
        let mv = value.(s) and mid = ids.(active.(s)) in
        let beaten = ref false in
        let k = ref adj_off.(s) in
        let k1 = adj_off.(s + 1) - 1 in
        while (not !beaten) && !k <= k1 do
          let ts = adj_slot.(!k) in
          if alive.(ts) then begin
            let tv = value.(ts) in
            if not (mv < tv || (mv = tv && mid < ids.(active.(ts)))) then
              beaten := true
          end;
          incr k
        done;
        if not !beaten then begin
          winners.(!wlen) <- s;
          incr wlen
        end
      done;
      for i = 0 to !wlen - 1 do
        let u = active.(winners.(i)) in
        output.(u) <- true;
        decided.(u) <- true;
        decide_round.(u) <- r_win
      done;
      undecided := !undecided - !wlen;
      if !undecided = 0 then begin
        rounds := r_win;
        stop := true
      end
      else begin
        for i = 0 to !wlen - 1 do
          alive.(winners.(i)) <- false
        done;
        if r_cov > max_rounds then begin
          rounds := max_rounds;
          stop := true
        end
        else begin
          let cov = ref 0 in
          for i = 0 to !wlen - 1 do
            let s = winners.(i) in
            for k = adj_off.(s) to adj_off.(s + 1) - 1 do
              let ts = adj_slot.(k) in
              if alive.(ts) then begin
                alive.(ts) <- false;
                let u = active.(ts) in
                output.(u) <- false;
                decided.(u) <- true;
                decide_round.(u) <- r_cov;
                incr cov
              end
            done
          done;
          undecided := !undecided - !cov;
          if !undecided = 0 then begin
            rounds := r_cov;
            stop := true
          end
          else begin
            let w = ref 0 in
            for i = 0 to !flen - 1 do
              let s = front.(i) in
              if alive.(s) then begin
                front.(!w) <- s;
                incr w
              end
            done;
            flen := !w;
            incr phase
          end
        end
      end
    end
  done;
  !rounds

let luby ?max_rounds ~value_of t =
  let span = Prof.gstart "kernel.luby" in
  let cs = t.csr in
  let n = cs.Csr.n in
  let nslots = Csr.nslots cs in
  let max_rounds =
    match max_rounds with Some r -> r | None -> default_max_rounds n
  in
  let scr = luby_scratch t in
  let output = Array.make n false in
  let decided = Array.make n false in
  let decide_round = Array.make n (-1) in
  Array.fill scr.l_alive 0 nslots true;
  for s = 0 to nslots - 1 do
    scr.l_front.(s) <- s
  done;
  let rounds =
    run_luby_phases ~csr:cs ~scr ~value_of ~base:0 ~max_rounds ~flen:nslots
      ~undecided:nslots ~output ~decided ~decide_round
  in
  Prof.gstop span;
  { output; decided; decide_round; rounds }

type fair_tree_coins = {
  cut : u:int -> v:int -> bool;
  bit1 : int -> bool;
  bit2 : int -> bool;
  bit3 : int -> bool;
  luby_value : round:int -> id:int -> int;
}

let fair_tree ?max_rounds ~gamma ~coins t =
  if gamma < 1 then invalid_arg "Kernel.fair_tree: gamma";
  let span = Prof.gstart "kernel.fair_tree" in
  let cs = t.csr in
  let n = cs.Csr.n in
  let nslots = Csr.nslots cs in
  let g = gamma in
  let max_rounds =
    match max_rounds with
    | Some r -> r
    | None -> (6 * g) + 6 + (64 * (ceil_log2 (max n 2) + 2))
  in
  let output = Array.make n false in
  let decided = Array.make n false in
  let decide_round = Array.make n (-1) in
  let r_decide = (6 * g) + 5 in
  let rounds =
    if nslots = 0 then 0
    else if r_decide > max_rounds then
      (* The first decision round lies past the cutoff: the engine runs
         [max_rounds] rounds of protocol and gives up undecided. *)
      max_rounds
    else begin
      let adj_off = cs.Csr.adj_off and adj_slot = cs.Csr.adj_slot in
      let active = cs.Csr.active and ids = cs.Csr.ids in
      let id_of s = ids.(active.(s)) in
      let scr = ft_scratch t in
      let front = scr.f_front and front2 = scr.f_front2 in
      let inext = scr.f_inext and touch = scr.f_touch in
      let allowed = scr.f_allowed in
      let best = scr.f_best in
      let lead = scr.f_lead and depth = scr.f_depth and bit = scr.f_bit in
      (* [gamma] synchronous rounds of flood-max over the allowed edges
         among [mask] participants; [best] starts at the own id. *)
      let flood mask =
        let flen = ref 0 in
        for s = 0 to nslots - 1 do
          if mask.(s) then begin
            best.(s) <- id_of s;
            front.(!flen) <- s;
            incr flen
          end
        done;
        let cur = ref front and nxt = ref front2 in
        let r = ref 0 in
        while !r < g && !flen > 0 do
          incr r;
          let ntouch = ref 0 in
          for i = 0 to !flen - 1 do
            let s = (!cur).(i) in
            let b = best.(s) in
            for k = adj_off.(s) to adj_off.(s + 1) - 1 do
              if allowed.(k) then begin
                let ts = adj_slot.(k) in
                if b > best.(ts) then begin
                  if not inext.(ts) then begin
                    inext.(ts) <- true;
                    scr.f_obest.(ts) <- b;
                    touch.(!ntouch) <- ts;
                    incr ntouch
                  end
                  else if b > scr.f_obest.(ts) then scr.f_obest.(ts) <- b
                end
              end
            done
          done;
          let nlen = ref 0 in
          for i = 0 to !ntouch - 1 do
            let ts = touch.(i) in
            inext.(ts) <- false;
            if scr.f_obest.(ts) > best.(ts) then begin
              best.(ts) <- scr.f_obest.(ts);
              (!nxt).(!nlen) <- ts;
              incr nlen
            end
          done;
          let tmp = !cur in
          cur := !nxt;
          nxt := tmp;
          flen := !nlen
        done
      in
      (* [gamma] synchronous rounds of BFS adoption from the leaders
         (participants whose flood converged on their own id). A node
         adopts the offer (lead, depth + 1, bit) when it has no lead yet
         or the offer's (lead, depth) key is strictly better. *)
      let bfs mask bit_for =
        for s = 0 to nslots - 1 do
          lead.(s) <- -1;
          depth.(s) <- -1;
          bit.(s) <- false
        done;
        let flen = ref 0 in
        for s = 0 to nslots - 1 do
          if mask.(s) && best.(s) = id_of s then begin
            lead.(s) <- id_of s;
            depth.(s) <- 0;
            bit.(s) <- bit_for (id_of s);
            front.(!flen) <- s;
            incr flen
          end
        done;
        let cur = ref front and nxt = ref front2 in
        let r = ref 0 in
        while !r < g && !flen > 0 do
          incr r;
          let ntouch = ref 0 in
          for i = 0 to !flen - 1 do
            let s = (!cur).(i) in
            let ol = lead.(s) and od = depth.(s) + 1 and ob = bit.(s) in
            for k = adj_off.(s) to adj_off.(s + 1) - 1 do
              if allowed.(k) then begin
                let ts = adj_slot.(k) in
                if not inext.(ts) then begin
                  inext.(ts) <- true;
                  scr.f_olead.(ts) <- ol;
                  scr.f_odepth.(ts) <- od;
                  scr.f_obit.(ts) <- ob;
                  touch.(!ntouch) <- ts;
                  incr ntouch
                end
                else if
                  ol > scr.f_olead.(ts)
                  || (ol = scr.f_olead.(ts) && od < scr.f_odepth.(ts))
                then begin
                  scr.f_olead.(ts) <- ol;
                  scr.f_odepth.(ts) <- od;
                  scr.f_obit.(ts) <- ob
                end
              end
            done
          done;
          let nlen = ref 0 in
          for i = 0 to !ntouch - 1 do
            let ts = touch.(i) in
            inext.(ts) <- false;
            let ol = scr.f_olead.(ts) and od = scr.f_odepth.(ts) in
            if
              lead.(ts) < 0 || ol > lead.(ts)
              || (ol = lead.(ts) && od < depth.(ts))
            then begin
              lead.(ts) <- ol;
              depth.(ts) <- od;
              bit.(ts) <- scr.f_obit.(ts);
              (!nxt).(!nlen) <- ts;
              incr nlen
            end
          done;
          let tmp = !cur in
          cur := !nxt;
          nxt := tmp;
          flen := !nlen
        done
      in
      let joined s =
        if scr.f_pdeg.(s) = 0 then true
        else if lead.(s) < 0 then false
        else (depth.(s) + if bit.(s) then 1 else 0) mod 2 = 0
      in
      (* Stage 1: CntrlFairBipart over the uncut edges; all nodes
         participate. The cut coin is symmetric in (min id, max id), so
         the per-entry mask agrees across both directions. *)
      for s = 0 to nslots - 1 do
        let a = id_of s in
        let d = ref 0 in
        for k = adj_off.(s) to adj_off.(s + 1) - 1 do
          let b = id_of adj_slot.(k) in
          let ok = not (coins.cut ~u:(min a b) ~v:(max a b)) in
          allowed.(k) <- ok;
          if ok then incr d
        done;
        scr.f_pdeg.(s) <- !d
      done;
      flood scr.f_all;
      bfs scr.f_all coins.bit1;
      for s = 0 to nslots - 1 do
        scr.f_i1.(s) <- joined s
      done;
      (* Stage 2: the same pipeline on the subgraph induced by I1, over
         all edges. [pdeg] is the I1-neighbor count (the message
         protocol's [List.length i1_neighbors]). *)
      for s = 0 to nslots - 1 do
        let d = ref 0 in
        for k = adj_off.(s) to adj_off.(s + 1) - 1 do
          let t_i1 = scr.f_i1.(adj_slot.(k)) in
          allowed.(k) <- scr.f_i1.(s) && t_i1;
          if t_i1 then incr d
        done;
        scr.f_pdeg.(s) <- !d
      done;
      flood scr.f_i1;
      bfs scr.f_i1 coins.bit2;
      for s = 0 to nslots - 1 do
        scr.f_i2.(s) <- scr.f_i1.(s) && joined s
      done;
      (* Coverage: a node is uncovered when neither it nor any neighbor
         joined I2. *)
      for s = 0 to nslots - 1 do
        let covered = ref scr.f_i2.(s) in
        let k = ref adj_off.(s) in
        let k1 = adj_off.(s + 1) - 1 in
        while (not !covered) && !k <= k1 do
          if scr.f_i2.(adj_slot.(!k)) then covered := true;
          incr k
        done;
        scr.f_unc.(s) <- not !covered
      done;
      (* Stage 3: the pipeline once more on the uncovered nodes. *)
      for s = 0 to nslots - 1 do
        let d = ref 0 in
        for k = adj_off.(s) to adj_off.(s + 1) - 1 do
          let t_unc = scr.f_unc.(adj_slot.(k)) in
          allowed.(k) <- scr.f_unc.(s) && t_unc;
          if t_unc then incr d
        done;
        scr.f_pdeg.(s) <- !d
      done;
      flood scr.f_unc;
      bfs scr.f_unc coins.bit3;
      for s = 0 to nslots - 1 do
        scr.f_i3.(s) <- scr.f_i2.(s) || (scr.f_unc.(s) && joined s)
      done;
      (* Independence repair: drop both endpoints of any I3 conflict. *)
      for s = 0 to nslots - 1 do
        let conflict = ref false in
        let k = ref adj_off.(s) in
        let k1 = adj_off.(s + 1) - 1 in
        while (not !conflict) && !k <= k1 do
          if scr.f_i3.(adj_slot.(!k)) then conflict := true;
          incr k
        done;
        scr.f_i4.(s) <- scr.f_i3.(s) && not !conflict
      done;
      (* Decisions at round 6g+5: I4 joins, I4-neighbors are covered, the
         rest fall through to a Luby run among themselves. *)
      let undecided = ref nslots in
      let scrl = luby_scratch t in
      Array.fill scrl.l_alive 0 nslots false;
      let flen = ref 0 in
      for s = 0 to nslots - 1 do
        let u = active.(s) in
        if scr.f_i4.(s) then begin
          output.(u) <- true;
          decided.(u) <- true;
          decide_round.(u) <- r_decide;
          decr undecided
        end
        else begin
          let near = ref false in
          let k = ref adj_off.(s) in
          let k1 = adj_off.(s + 1) - 1 in
          while (not !near) && !k <= k1 do
            if scr.f_i4.(adj_slot.(!k)) then near := true;
            incr k
          done;
          if !near then begin
            output.(u) <- false;
            decided.(u) <- true;
            decide_round.(u) <- r_decide;
            decr undecided
          end
          else begin
            scrl.l_alive.(s) <- true;
            scrl.l_front.(!flen) <- s;
            incr flen
          end
        end
      done;
      if !undecided = 0 then r_decide
      else
        run_luby_phases ~csr:cs ~scr:scrl ~value_of:coins.luby_value
          ~base:r_decide ~max_rounds ~flen:!flen ~undecided:!undecided
          ~output ~decided ~decide_round
    end
  in
  Prof.gstop span;
  { output; decided; decide_round; rounds }

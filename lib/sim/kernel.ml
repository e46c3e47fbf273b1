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
     than its [gamma] rounds, because the flood may not have converged.

   The sweeps are memory-bound at scale, so the scratch is laid out for
   cache density: every mask is a [Bytes.t] with one byte per slot (or
   per adjacency entry for [f_allowed]), an eighth of a [bool array],
   and [slot_id] holds each slot's program id so a neighbor's id is one
   load from its slot instead of two ([ids.(active.(s))]).

   Large kernels also pick their own slot order. The compile numbers
   slots by node index, and on a tree like [random_attachment_xl] a
   node's neighbors then sit megabytes apart, so flood and BFS pay a
   cache miss per entry. From [relabel_cutoff] slots up, [of_csr]
   renumbers the slots in BFS order, which puts most neighbors a few
   slots apart; at 10^6 nodes that halves the flood and BFS stages.
   The order is private: every coin and tie-break reads [slot_id]
   (program ids), flood-max does not depend on visit order, equal BFS
   keys carry equal bits, and outputs are written through
   [active.(s)] to node indices, so nothing needs un-permuting. The
   relabel is one fused flat loop (see [relabel]) because it is paid in
   set-up, where it has to fit in the time the cheaper full-view compile
   saved. *)

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

(* Byte-mask access: a byte is set when it is non-zero. *)
let[@inline] mget m i = Bytes.get m i <> '\000'
let[@inline] mset m i b = Bytes.set m i (if b then '\001' else '\000')

(* Scratch for the Luby phase loop, cached across runs. Everything is
   indexed by slot; [l_alive] is a byte mask; [l_front]/[l_winners] hold
   slot lists. *)
type luby_scratch = {
  l_value : int array;
  l_alive : Bytes.t;
  l_front : int array;
  l_winners : int array;
}

(* Scratch for the FairTree stage pipeline. [f_allowed] is indexed by
   CSR adjacency entry; everything else by slot. The [Bytes.t] fields
   are byte masks. [f_obest] / [f_olead]/[f_odepth]/[f_obit] stage the
   current round's incoming offers ([f_inext] marks staged slots, reset
   on apply, [f_touch] lists them). *)
type ft_scratch = {
  f_best : int array;
  f_lead : int array;
  f_depth : int array;
  f_bit : Bytes.t;
  f_obest : int array;
  f_olead : int array;
  f_odepth : int array;
  f_obit : Bytes.t;
  f_inext : Bytes.t;
  f_touch : int array;
  f_front : int array;
  f_front2 : int array;
  f_allowed : Bytes.t;
  f_all : Bytes.t;  (* constant all-set participant mask *)
  f_pdeg : int array;
  f_i1 : Bytes.t;
  f_i2 : Bytes.t;
  f_unc : Bytes.t;
  f_i3 : Bytes.t;
  f_i4 : Bytes.t;
}

type t = {
  csr : Csr.t;
  slot_id : int array;  (* slot -> program id, [ids.(active.(s))] *)
  mutable luby_scr : luby_scratch option;
  mutable ft_scr : ft_scratch option;
}

(* The kernel's private slot order: BFS from slot 0, restarting at the
   next unvisited slot for each further component. One fused loop:
   [rank] (old slot -> new slot) is assigned when a slot is queued, so
   popping old slot [s] at queue position [i] makes [i] its new slot and
   every neighbor already has a rank when the permuted row is written.
   The new [active] doubles as the queue: position [i] holds the old
   slot until it is popped, then the node index. When the old slots are
   node indices (a compile with every node active), [rank] is the new
   [slot] and the popped slot is the node, so that case skips the
   [active]/[slot] reads and writes at random positions. *)
let relabel (c : Csr.t) =
  let nslots = Csr.nslots c in
  let off = c.Csr.adj_off and adj = c.Csr.adj_slot in
  let old_active = c.Csr.active in
  let ident =
    nslots = c.Csr.n
    &&
    let i = ref 0 in
    while !i < nslots && old_active.(!i) = !i do
      incr i
    done;
    !i = nslots
  in
  let rank = Array.make nslots (-1) in
  let active = Array.make nslots 0 in
  let slot = if ident then rank else Array.make c.Csr.n (-1) in
  let adj_off = Array.make (nslots + 1) 0 in
  let adj_slot = Array.make (Array.length adj) 0 in
  let tail = ref 0 and next = ref 0 and k = ref 0 in
  for i = 0 to nslots - 1 do
    if i = !tail then begin
      while rank.(!next) >= 0 do
        incr next
      done;
      rank.(!next) <- i;
      active.(i) <- !next;
      incr tail
    end;
    let s = active.(i) in
    if not ident then begin
      let u = old_active.(s) in
      active.(i) <- u;
      slot.(u) <- i
    end;
    for e = off.(s) to off.(s + 1) - 1 do
      let t = adj.(e) in
      let r = rank.(t) in
      if r >= 0 then adj_slot.(!k) <- r
      else begin
        let r = !tail in
        rank.(t) <- r;
        active.(r) <- t;
        tail := r + 1;
        adj_slot.(!k) <- r
      end;
      incr k
    done;
    adj_off.(i + 1) <- !k
  done;
  { c with Csr.active; slot; adj_off; adj_slot }

(* Below this many slots the per-slot arrays stay cache-resident and the
   BFS order gains nothing (measured at 10^5 on a random attachment
   tree), so smaller kernels keep the compile's order. *)
let relabel_cutoff = 1 lsl 18

(* [slot_id] is scattered in node order: the reads of [slot] and [ids]
   are sequential and only the writes land at random slots, which is
   about twice as fast at 10^6 as gathering [ids.(active.(s))] in slot
   order once the slots are relabelled. *)
let of_csr csr =
  let csr = if Csr.nslots csr >= relabel_cutoff then relabel csr else csr in
  let ids = csr.Csr.ids and slot = csr.Csr.slot in
  let slot_id = Array.make (Csr.nslots csr) 0 in
  for u = 0 to csr.Csr.n - 1 do
    let s = slot.(u) in
    if s >= 0 then slot_id.(s) <- ids.(u)
  done;
  { csr; slot_id; luby_scr = None; ft_scr = None }

let fresh t = { t with luby_scr = None; ft_scr = None }
let create ?ids view = of_csr (Csr.compile ?ids view)
let view t = Csr.view t.csr
let csr t = t.csr

let luby_scratch t =
  match t.luby_scr with
  | Some s -> s
  | None ->
    let k = max 1 (Csr.nslots t.csr) in
    let s =
      { l_value = Array.make k 0; l_alive = Bytes.make k '\000';
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
      let mask () = Bytes.make k '\000' in
      { f_best = Array.make k 0; f_lead = Array.make k (-1);
        f_depth = Array.make k (-1); f_bit = mask ();
        f_obest = Array.make k 0; f_olead = Array.make k (-1);
        f_odepth = Array.make k 0; f_obit = mask ();
        f_inext = mask (); f_touch = Array.make k 0;
        f_front = Array.make k 0; f_front2 = Array.make k 0;
        f_allowed = Bytes.make e '\000'; f_all = Bytes.make k '\001';
        f_pdeg = Array.make k 0; f_i1 = mask (); f_i2 = mask ();
        f_unc = mask (); f_i3 = mask (); f_i4 = mask () }
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
let run_luby_phases t ~scr ~value_of ~base ~max_rounds ~flen:flen0
    ~undecided:undec0 ~output ~decided ~decide_round =
  let csr = t.csr and slot_id = t.slot_id in
  let adj_off = csr.Csr.adj_off and adj_slot = csr.Csr.adj_slot in
  let active = csr.Csr.active in
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
        value.(s) <- value_of ~round:p ~id:slot_id.(s)
      done;
      (* Winner scan over the pre-marking snapshot: a node wins when its
         (value, id) strictly beats every live neighbor's. *)
      let wlen = ref 0 in
      for i = 0 to !flen - 1 do
        let s = front.(i) in
        let mv = value.(s) and mid = slot_id.(s) in
        let beaten = ref false in
        let k = ref adj_off.(s) in
        let k1 = adj_off.(s + 1) - 1 in
        while (not !beaten) && !k <= k1 do
          let ts = adj_slot.(!k) in
          if mget alive ts then begin
            let tv = value.(ts) in
            if not (mv < tv || (mv = tv && mid < slot_id.(ts))) then
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
          mset alive winners.(i) false
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
              if mget alive ts then begin
                mset alive ts false;
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
              if mget alive s then begin
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
  Bytes.fill scr.l_alive 0 nslots '\001';
  for s = 0 to nslots - 1 do
    scr.l_front.(s) <- s
  done;
  let rounds =
    run_luby_phases t ~scr ~value_of ~base:0 ~max_rounds ~flen:nslots
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
      let active = cs.Csr.active and slot_id = t.slot_id in
      let scr = ft_scratch t in
      let front = scr.f_front and front2 = scr.f_front2 in
      let inext = scr.f_inext and touch = scr.f_touch in
      let allowed = scr.f_allowed and pdeg = scr.f_pdeg in
      let best = scr.f_best and obest = scr.f_obest in
      let lead = scr.f_lead and depth = scr.f_depth and bit = scr.f_bit in
      let olead = scr.f_olead and odepth = scr.f_odepth and obit = scr.f_obit in
      let i1 = scr.f_i1 and i2 = scr.f_i2 and unc = scr.f_unc in
      let i3 = scr.f_i3 and i4 = scr.f_i4 in
      (* [gamma] synchronous rounds of flood-max over the allowed edges
         among [mask] participants; [best] starts at the own id. *)
      let flood mask =
        let sp = Prof.gstart "kernel.fair_tree.flood" in
        let flen = ref 0 in
        for s = 0 to nslots - 1 do
          if mget mask s then begin
            best.(s) <- slot_id.(s);
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
              if mget allowed k then begin
                let ts = adj_slot.(k) in
                if b > best.(ts) then begin
                  if not (mget inext ts) then begin
                    mset inext ts true;
                    obest.(ts) <- b;
                    touch.(!ntouch) <- ts;
                    incr ntouch
                  end
                  else if b > obest.(ts) then obest.(ts) <- b
                end
              end
            done
          done;
          let nlen = ref 0 in
          for i = 0 to !ntouch - 1 do
            let ts = touch.(i) in
            mset inext ts false;
            if obest.(ts) > best.(ts) then begin
              best.(ts) <- obest.(ts);
              (!nxt).(!nlen) <- ts;
              incr nlen
            end
          done;
          let tmp = !cur in
          cur := !nxt;
          nxt := tmp;
          flen := !nlen
        done;
        Prof.gstop sp
      in
      (* [gamma] synchronous rounds of BFS adoption from the leaders
         (participants whose flood converged on their own id). A node
         adopts the offer (lead, depth + 1, bit) when it has no lead yet
         or the offer's (lead, depth) key is strictly better. *)
      let bfs mask bit_for =
        let sp = Prof.gstart "kernel.fair_tree.bfs" in
        Array.fill lead 0 nslots (-1);
        Array.fill depth 0 nslots (-1);
        Bytes.fill bit 0 nslots '\000';
        let flen = ref 0 in
        for s = 0 to nslots - 1 do
          let id = slot_id.(s) in
          if mget mask s && best.(s) = id then begin
            lead.(s) <- id;
            depth.(s) <- 0;
            mset bit s (bit_for id);
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
            let ol = lead.(s) and od = depth.(s) + 1 and ob = mget bit s in
            for k = adj_off.(s) to adj_off.(s + 1) - 1 do
              if mget allowed k then begin
                let ts = adj_slot.(k) in
                if not (mget inext ts) then begin
                  mset inext ts true;
                  olead.(ts) <- ol;
                  odepth.(ts) <- od;
                  mset obit ts ob;
                  touch.(!ntouch) <- ts;
                  incr ntouch
                end
                else if
                  ol > olead.(ts) || (ol = olead.(ts) && od < odepth.(ts))
                then begin
                  olead.(ts) <- ol;
                  odepth.(ts) <- od;
                  mset obit ts ob
                end
              end
            done
          done;
          let nlen = ref 0 in
          for i = 0 to !ntouch - 1 do
            let ts = touch.(i) in
            mset inext ts false;
            let ol = olead.(ts) and od = odepth.(ts) in
            if
              lead.(ts) < 0 || ol > lead.(ts)
              || (ol = lead.(ts) && od < depth.(ts))
            then begin
              lead.(ts) <- ol;
              depth.(ts) <- od;
              mset bit ts (mget obit ts);
              (!nxt).(!nlen) <- ts;
              incr nlen
            end
          done;
          let tmp = !cur in
          cur := !nxt;
          nxt := tmp;
          flen := !nlen
        done;
        Prof.gstop sp
      in
      let joined s =
        if pdeg.(s) = 0 then true
        else if lead.(s) < 0 then false
        else (depth.(s) + if mget bit s then 1 else 0) mod 2 = 0
      in
      (* Restrict [allowed] to the edges inside [mask]; [pdeg] counts
         each slot's [mask] neighbors. *)
      let restrict mask =
        for s = 0 to nslots - 1 do
          let inside = mget mask s in
          let d = ref 0 in
          for k = adj_off.(s) to adj_off.(s + 1) - 1 do
            let t_in = mget mask adj_slot.(k) in
            mset allowed k (inside && t_in);
            if t_in then incr d
          done;
          pdeg.(s) <- !d
        done
      in
      (* Whether any neighbor of [s] is in [mask]. *)
      let near mask s =
        let hit = ref false in
        let k = ref adj_off.(s) in
        let k1 = adj_off.(s + 1) - 1 in
        while (not !hit) && !k <= k1 do
          if mget mask adj_slot.(!k) then hit := true;
          incr k
        done;
        !hit
      in
      (* Stage 1: CntrlFairBipart over the uncut edges; all nodes
         participate. The cut coin is symmetric in (min id, max id), so
         the per-entry mask agrees across both directions. *)
      let sp = Prof.gstart "kernel.fair_tree.cut" in
      for s = 0 to nslots - 1 do
        let a = slot_id.(s) in
        let d = ref 0 in
        for k = adj_off.(s) to adj_off.(s + 1) - 1 do
          let b = slot_id.(adj_slot.(k)) in
          let cut = if a < b then coins.cut ~u:a ~v:b else coins.cut ~u:b ~v:a in
          mset allowed k (not cut);
          if not cut then incr d
        done;
        pdeg.(s) <- !d
      done;
      Prof.gstop sp;
      flood scr.f_all;
      bfs scr.f_all coins.bit1;
      let sp = Prof.gstart "kernel.fair_tree.masks" in
      for s = 0 to nslots - 1 do
        mset i1 s (joined s)
      done;
      (* Stage 2: the same pipeline on the subgraph induced by I1, over
         all edges. [pdeg] is the I1-neighbor count (the message
         protocol's [List.length i1_neighbors]). *)
      restrict i1;
      Prof.gstop sp;
      flood i1;
      bfs i1 coins.bit2;
      let sp = Prof.gstart "kernel.fair_tree.masks" in
      for s = 0 to nslots - 1 do
        mset i2 s (mget i1 s && joined s)
      done;
      (* Coverage: a node is uncovered when neither it nor any neighbor
         joined I2. *)
      for s = 0 to nslots - 1 do
        mset unc s (not (mget i2 s || near i2 s))
      done;
      (* Stage 3: the pipeline once more on the uncovered nodes. *)
      restrict unc;
      Prof.gstop sp;
      flood unc;
      bfs unc coins.bit3;
      let sp = Prof.gstart "kernel.fair_tree.masks" in
      for s = 0 to nslots - 1 do
        mset i3 s (mget i2 s || (mget unc s && joined s))
      done;
      (* Independence repair: drop both endpoints of any I3 conflict. *)
      for s = 0 to nslots - 1 do
        mset i4 s (mget i3 s && not (near i3 s))
      done;
      (* Decisions at round 6g+5: I4 joins, I4-neighbors are covered, the
         rest fall through to a Luby run among themselves. *)
      let undecided = ref nslots in
      let scrl = luby_scratch t in
      Bytes.fill scrl.l_alive 0 nslots '\000';
      let flen = ref 0 in
      for s = 0 to nslots - 1 do
        let u = active.(s) in
        if mget i4 s then begin
          output.(u) <- true;
          decided.(u) <- true;
          decide_round.(u) <- r_decide;
          decr undecided
        end
        else if near i4 s then begin
          output.(u) <- false;
          decided.(u) <- true;
          decide_round.(u) <- r_decide;
          decr undecided
        end
        else begin
          mset scrl.l_alive s true;
          scrl.l_front.(!flen) <- s;
          incr flen
        end
      done;
      Prof.gstop sp;
      if !undecided = 0 then r_decide
      else begin
        let sp = Prof.gstart "kernel.fair_tree.fallback" in
        let r =
          run_luby_phases t ~scr:scrl ~value_of:coins.luby_value
            ~base:r_decide ~max_rounds ~flen:!flen ~undecided:!undecided
            ~output ~decided ~decide_round
        in
        Prof.gstop sp;
        r
      end
    end
  in
  Prof.gstop span;
  { output; decided; decide_round; rounds }

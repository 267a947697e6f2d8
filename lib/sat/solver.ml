type restart_scheme = Luby_restarts of int | Geometric of int * float

type config = {
  var_decay : float;
  clause_decay : float;
  restart : restart_scheme;
  random_var_freq : float;
  phase_saving : bool;
  seed : int;
  inprocess_every : int;
  inprocess_budget : int;
}

let minisat_like =
  {
    var_decay = 0.95;
    clause_decay = 0.999;
    restart = Luby_restarts 100;
    random_var_freq = 0.0;
    phase_saving = true;
    seed = 91648253;
    inprocess_every = 8;
    inprocess_budget = 12_000;
  }

let siege_like =
  {
    var_decay = 0.85;
    clause_decay = 0.999;
    restart = Geometric (100, 1.3);
    random_var_freq = 0.01;
    phase_saving = true;
    seed = 2007;
    inprocess_every = 8;
    inprocess_budget = 12_000;
  }

let default = minisat_like

type budget = {
  max_conflicts : int option;
  max_seconds : float option;
  max_memory_mb : int option;
  interrupt : (unit -> bool) option;
  poll_every : int;
  on_event : (Event.t -> unit) option;
}

let default_poll_interval = 256

let no_budget =
  {
    max_conflicts = None;
    max_seconds = None;
    max_memory_mb = None;
    interrupt = None;
    poll_every = default_poll_interval;
    on_event = None;
  }

let conflict_budget n = { no_budget with max_conflicts = Some n }
let time_budget s = { no_budget with max_seconds = Some s }
let memory_budget mb = { no_budget with max_memory_mb = Some mb }
let interruptible f budget = { budget with interrupt = Some f }
let with_poll_interval n budget = { budget with poll_every = max 1 n }
let with_memory_limit mb budget = { budget with max_memory_mb = Some mb }
let with_event_hook f budget = { budget with on_event = Some f }

(* [Gc.quick_stat] reads the major-heap size without walking the heap, so it
   is cheap enough for the conflict-poll loop. In OCaml 5 the major heap is
   shared by all domains: the bound is on the whole process image, which is
   exactly what an unattended sweep needs to survive an exploding clause
   database without the OOM killer taking down its sibling domains. *)
let heap_words () = (Gc.quick_stat ()).Gc.heap_words

let words_to_megabytes words =
  float_of_int words *. float_of_int (Sys.word_size / 8) /. (1024. *. 1024.)


type result = Sat of bool array | Unsat | Unknown | Memout

(* Deterministic xorshift64 RNG so runs are reproducible across machines. *)
module Rng = struct
  type t = { mutable state : int64 }

  let create seed = { state = Int64.of_int (if seed = 0 then 88172645463325252 else seed) }

  let next t =
    let x = t.state in
    let x = Int64.logxor x (Int64.shift_left x 13) in
    let x = Int64.logxor x (Int64.shift_right_logical x 7) in
    let x = Int64.logxor x (Int64.shift_left x 17) in
    t.state <- x;
    x

  let float t =
    let bits = Int64.to_int (Int64.shift_right_logical (next t) 11) in
    float_of_int bits /. float_of_int (1 lsl 53)

  let int t bound = int_of_float (float t *. float_of_int bound)
end

(* Watcher lists: packed (blocker, cref) int pairs in a flat array, two
   slots per watcher. The blocker is some other literal of the clause; when
   it is already true the visit skips the clause dereference entirely, which
   is the common case on dense instances (MiniSat/Glucose blocker trick).
   Hand-rolled rather than an int Vec so the hot loop indexes one array with
   no per-element bounds ceremony. *)
type wlist = { mutable wdata : int array; mutable wsize : int }

let wl_create () = { wdata = [||]; wsize = 0 }

let wl_push w blocker cref =
  let cap = Array.length w.wdata in
  if w.wsize + 2 > cap then begin
    let ndata = Array.make (max 8 (2 * cap)) 0 in
    Array.blit w.wdata 0 ndata 0 w.wsize;
    w.wdata <- ndata
  end;
  w.wdata.(w.wsize) <- blocker;
  w.wdata.(w.wsize + 1) <- cref;
  w.wsize <- w.wsize + 2

let wl_remove w cref =
  let i = ref 0 in
  while !i < w.wsize && w.wdata.(!i + 1) <> cref do
    i := !i + 2
  done;
  if !i < w.wsize then begin
    w.wdata.(!i) <- w.wdata.(w.wsize - 2);
    w.wdata.(!i + 1) <- w.wdata.(w.wsize - 1);
    w.wsize <- w.wsize - 2
  end

type state = {
  cfg : config;
  nvars : int;
  (* clause database: all clauses live in one flat arena, referenced by
     integer crefs; [db] is replaced wholesale on compaction *)
  mutable db : Clause.t;
  clauses : Clause.cref Vec.t;
  learnts : Clause.cref Vec.t;
  watches : wlist array; (* indexed by literal *)
  (* assignment, by literal: 1 true, -1 false, 0 unassigned; a literal
     and its negation always hold opposite values, so reading one needs no
     sign branch *)
  vals : int array;
  level : int array;
  reason : Clause.cref array; (* cref_undef when none *)
  trail : Lit.t Vec.t;
  trail_lim : int Vec.t;
  mutable qhead : int;
  (* heuristics *)
  activity : float array;
  mutable var_inc : float;
  mutable cla_inc : float;
  order : Heap.t;
  phase : bool array;
  seen : bool array;
  (* conflict-analysis scratch, sized once so [analyze] builds no lists:
     the learnt clause ([learnt_size] literals, LBD [learnt_lbd]), the
     variables whose [seen] flag it set, and one stamp per decision level
     for counting the clause's distinct levels *)
  learnt : Lit.t array;
  mutable learnt_size : int;
  mutable learnt_lbd : int;
  to_clear : int array;
  mutable level_stamp : int array;
  mutable stamp : int;
  rng : Rng.t;
  stats : Stats.t;
  proof : Proof.t option;
  mutable ok : bool; (* false once level-0 conflict is established *)
}

let value_lit st l = st.vals.(l)
let value_var st v = st.vals.(Lit.pos v)

let decision_level st = Vec.size st.trail_lim

(* The clause arena and the problem-clause index are sized for every clause
   of [cnf] up front, so loading it never regrows either. *)
let create cfg cnf proof =
  let nvars = Cnf.num_vars cnf in
  let nclauses = Cnf.num_clauses cnf in
  let activity = Array.make (max nvars 1) 0. in
  {
    cfg;
    nvars;
    db = Clause.create (Cnf.num_lits cnf + (Clause.header_words * nclauses));
    clauses = Vec.create ~capacity:nclauses ~dummy:Clause.cref_undef ();
    learnts = Vec.create ~dummy:Clause.cref_undef ();
    watches = Array.init (max (2 * nvars) 1) (fun _ -> wl_create ());
    vals = Array.make (max (2 * nvars) 1) 0;
    level = Array.make (max nvars 1) 0;
    reason = Array.make (max nvars 1) Clause.cref_undef;
    trail = Vec.create ~dummy:0 ();
    trail_lim = Vec.create ~dummy:0 ();
    qhead = 0;
    activity;
    var_inc = 1.0;
    cla_inc = 1.0;
    order = Heap.create ~scores:activity;
    phase = Array.make (max nvars 1) false;
    seen = Array.make (max nvars 1) false;
    learnt = Array.make (max nvars 1) 0;
    learnt_size = 0;
    learnt_lbd = 0;
    to_clear = Array.make (max nvars 1) 0;
    level_stamp = Array.make (nvars + 1) 0;
    stamp = 0;
    rng = Rng.create cfg.seed;
    stats = Stats.create ();
    proof;
    ok = true;
  }

let var_rescale st =
  for v = 0 to st.nvars - 1 do
    st.activity.(v) <- st.activity.(v) *. 1e-100
  done;
  st.var_inc <- st.var_inc *. 1e-100

let var_bump st v =
  st.activity.(v) <- st.activity.(v) +. st.var_inc;
  if st.activity.(v) > 1e100 then var_rescale st;
  Heap.rescore st.order v

let var_decay_tick st = st.var_inc <- st.var_inc /. st.cfg.var_decay

let cla_bump st c =
  let a = Clause.activity st.db c +. st.cla_inc in
  Clause.set_activity st.db c a;
  if a > 1e20 then begin
    Vec.iter
      (fun d -> Clause.set_activity st.db d (Clause.activity st.db d *. 1e-20))
      st.learnts;
    st.cla_inc <- st.cla_inc *. 1e-20
  end

let cla_decay_tick st = st.cla_inc <- st.cla_inc /. st.cfg.clause_decay

let enqueue st l reason =
  let v = Lit.var l in
  assert (st.vals.(l) = 0);
  st.vals.(l) <- 1;
  st.vals.(Lit.negate l) <- -1;
  st.level.(v) <- decision_level st;
  st.reason.(v) <- reason;
  Vec.push st.trail l;
  st.stats.Stats.propagations <- st.stats.Stats.propagations + 1

(* The two watched literals of clause [c] are always its arena positions 0
   and 1, and [c] sits exactly in the watch lists of their negations; every
   attach, detach and in-place literal swap below preserves this. The
   blocker stored alongside is the other watched literal (or, after a
   blocker refresh in [propagate], the clause's first literal). *)
let attach_clause st c =
  let db = st.db in
  let l0 = Clause.lit db c 0 and l1 = Clause.lit db c 1 in
  wl_push st.watches.(Lit.negate l0) l1 c;
  wl_push st.watches.(Lit.negate l1) l0 c

let detach_clause st c =
  let db = st.db in
  wl_remove st.watches.(Lit.negate (Clause.lit db c 0)) c;
  wl_remove st.watches.(Lit.negate (Clause.lit db c 1)) c

(* Propagate all enqueued facts; returns the conflicting cref, or
   [Clause.cref_undef]. The hot loop works on the raw arena and raw watcher
   arrays: a watcher visit whose blocker is satisfied touches no clause
   memory at all, and the clause path reads literals from one contiguous
   int array. No allocation on any path. *)
let propagate st =
  let conflict = ref Clause.cref_undef in
  let arena = Clause.raw st.db in
  let vals = st.vals in
  let header_words = Clause.header_words in
  while !conflict = Clause.cref_undef && st.qhead < Vec.size st.trail do
    let p = Vec.get st.trail st.qhead in
    st.qhead <- st.qhead + 1;
    let false_lit = Lit.negate p in
    let ws = st.watches.(p) in
    let wdata = ws.wdata in
    let n = ws.wsize in
    let i = ref 0 and j = ref 0 in
    while !i < n do
      let blocker = wdata.(!i) in
      let cr = wdata.(!i + 1) in
      i := !i + 2;
      if vals.(blocker) = 1 then begin
        wdata.(!j) <- blocker;
        wdata.(!j + 1) <- cr;
        j := !j + 2
      end
      else begin
        let base = cr + header_words in
        (* make sure the false literal is at position 1 *)
        let l0 = arena.(base) in
        if l0 = false_lit then begin
          arena.(base) <- arena.(base + 1);
          arena.(base + 1) <- l0
        end;
        let first = arena.(base) in
        if first <> blocker && vals.(first) = 1 then begin
          (* satisfied: keep the watcher, refresh the blocker *)
          wdata.(!j) <- first;
          wdata.(!j + 1) <- cr;
          j := !j + 2
        end
        else begin
          (* find a replacement watch among positions 2.. *)
          let size = arena.(cr) in
          let k = ref 2 in
          while !k < size && vals.(arena.(base + !k)) = -1 do
            incr k
          done;
          if !k < size then begin
            arena.(base + 1) <- arena.(base + !k);
            arena.(base + !k) <- false_lit;
            (* never the list being traversed: the new watch is non-false,
               while [negate p] is false by construction *)
            wl_push st.watches.(Lit.negate arena.(base + 1)) first cr
          end
          else begin
            (* clause is unit or conflicting *)
            wdata.(!j) <- first;
            wdata.(!j + 1) <- cr;
            j := !j + 2;
            if vals.(first) = -1 then begin
              conflict := cr;
              st.qhead <- Vec.size st.trail;
              while !i < n do
                wdata.(!j) <- wdata.(!i);
                wdata.(!j + 1) <- wdata.(!i + 1);
                i := !i + 2;
                j := !j + 2
              done
            end
            else enqueue st first cr
          end
        end
      end
    done;
    ws.wsize <- !j
  done;
  !conflict

(* [Heap.insert] is a no-op for a variable already in the heap. *)
let cancel_until st lvl =
  if decision_level st > lvl then begin
    let bound = Vec.get st.trail_lim lvl in
    while Vec.size st.trail > bound do
      let l = Vec.pop st.trail in
      let v = Lit.var l in
      if st.cfg.phase_saving then st.phase.(v) <- Lit.sign l;
      st.vals.(l) <- 0;
      st.vals.(Lit.negate l) <- 0;
      st.reason.(v) <- Clause.cref_undef;
      Heap.insert st.order v
    done;
    st.qhead <- Vec.size st.trail;
    Vec.shrink st.trail_lim lvl
  end

(* Every decision level — free decision or assumption — goes through here,
   so [max_decision_level] also counts assumption ladders (server sessions
   open one level per assumption before any free decision). *)
let new_decision_level st =
  Vec.push st.trail_lim (Vec.size st.trail);
  let dl = Vec.size st.trail_lim in
  if dl > st.stats.Stats.max_decision_level then
    st.stats.Stats.max_decision_level <- dl

(* Basic minimisation keeps learnt literal [q] unless it is implied by the
   rest of the clause: [q] stays when it has no reason, or when some other
   literal of its reason is neither in the clause ([seen]) nor fixed at
   level 0. *)
let keeps st arena q =
  let r = st.reason.(Lit.var q) in
  r = Clause.cref_undef
  ||
  let base = r + Clause.header_words in
  let n = arena.(r) in
  let k = ref 1 in
  while
    !k < n
    &&
    let w = Lit.var arena.(base + !k) in
    st.seen.(w) || st.level.(w) <= 0
  do
    incr k
  done;
  !k < n

(* First-UIP conflict analysis with basic (non-recursive) minimisation.
   Leaves the learnt clause in [st.learnt] (asserting literal first, then
   the kept literals in reverse discovery order, with a literal of the
   second-highest level swapped to index 1), its length in
   [st.learnt_size] and its LBD in [st.learnt_lbd]; returns the backtrack
   level. Works in the solver's scratch buffers: no lists, closures or
   sets. *)
let analyze st confl =
  let db = st.db in
  (* nothing below allocates in the arena, so [arena] stays current *)
  let arena = Clause.raw db in
  let learnt = st.learnt in
  let size = ref 1 (* index 0 is reserved for the asserting literal *) in
  let cleared = ref 0 in
  let dl = decision_level st in
  let path_c = ref 0 in
  let p = ref (-1) in
  let index = ref (Vec.size st.trail - 1) in
  let confl = ref confl in
  let continue = ref true in
  while !continue do
    let c = !confl in
    assert (c <> Clause.cref_undef);
    if Clause.learnt db c then cla_bump st c;
    let start = if !p = -1 then 0 else 1 in
    let base = c + Clause.header_words in
    for jj = start to arena.(c) - 1 do
      let q = arena.(base + jj) in
      let v = Lit.var q in
      if (not st.seen.(v)) && st.level.(v) > 0 then begin
        var_bump st v;
        st.seen.(v) <- true;
        st.to_clear.(!cleared) <- v;
        incr cleared;
        if st.level.(v) >= dl then incr path_c
        else begin
          learnt.(!size) <- q;
          incr size
        end
      end
    done;
    (* select the next trail literal to resolve on *)
    while not st.seen.(Lit.var (Vec.get st.trail !index)) do
      decr index
    done;
    p := Vec.get st.trail !index;
    decr index;
    confl := st.reason.(Lit.var !p);
    st.seen.(Lit.var !p) <- false;
    decr path_c;
    if !path_c = 0 then continue := false
  done;
  learnt.(0) <- Lit.negate !p;
  (* minimise in place, in discovery order, while [seen] still marks the
     clause; then reverse the kept literals into their recorded order *)
  let n = ref 1 in
  for k = 1 to !size - 1 do
    let q = learnt.(k) in
    if keeps st arena q then begin
      learnt.(!n) <- q;
      incr n
    end
  done;
  for k = 0 to !cleared - 1 do
    st.seen.(st.to_clear.(k)) <- false
  done;
  let n = !n in
  let i = ref 1 and j = ref (n - 1) in
  while !i < !j do
    let tmp = learnt.(!i) in
    learnt.(!i) <- learnt.(!j);
    learnt.(!j) <- tmp;
    incr i;
    decr j
  done;
  st.learnt_size <- n;
  st.stats.Stats.learnt_literals <- st.stats.Stats.learnt_literals + n;
  if n = 1 then begin
    st.learnt_lbd <- 1;
    0
  end
  else begin
    (* backtrack level: move a max-level literal to index 1 *)
    let max_i = ref 1 in
    for k = 2 to n - 1 do
      if st.level.(Lit.var learnt.(k)) > st.level.(Lit.var learnt.(!max_i))
      then max_i := k
    done;
    let tmp = learnt.(1) in
    learnt.(1) <- learnt.(!max_i);
    learnt.(!max_i) <- tmp;
    (* LBD: distinct decision levels in the clause, counted by stamping
       each level with this analysis's number *)
    st.stamp <- st.stamp + 1;
    let lbd = ref 0 in
    for k = 0 to n - 1 do
      let lv = st.level.(Lit.var learnt.(k)) in
      if st.level_stamp.(lv) <> st.stamp then begin
        st.level_stamp.(lv) <- st.stamp;
        incr lbd
      end
    done;
    st.learnt_lbd <- !lbd;
    st.level.(Lit.var learnt.(1))
  end

let locked st c =
  let db = st.db in
  Clause.size db c > 0
  &&
  let l0 = Clause.lit db c 0 in
  value_lit st l0 = 1 && st.reason.(Lit.var l0) = c

let record_proof_add st lits =
  match st.proof with Some p -> Proof.add p lits | None -> ()

(* The first [n] literals of [lits], converted to the proof's list
   representation only when a proof is actually being recorded, so
   proof-less solving never pays the per-conflict list allocation. *)
let record_proof_add_prefix st lits n =
  match st.proof with
  | Some p -> Proof.add p (List.init n (Array.get lits))
  | None -> ()

let record_proof_delete st c =
  match st.proof with
  | Some p -> Proof.delete p (Clause.to_list st.db c)
  | None -> ()

(* Compact the clause arena: copy live clauses into a fresh arena (leaving
   forwarding pointers behind), remap the clause lists and locked reasons,
   and rebuild the watch lists. Nothing else holds crefs, so after this the
   arena contains no dead words and watchers reference live clauses only —
   the invariant [propagate] relies on to skip any deleted-check. *)
let gc st =
  let db = st.db in
  let live = Clause.fill db - Clause.wasted db in
  let ndb = Clause.create (max live 16) in
  let remap vec =
    for i = 0 to Vec.size vec - 1 do
      Vec.set vec i (Clause.reloc ~src:db ~dst:ndb (Vec.get vec i))
    done
  in
  remap st.clauses;
  remap st.learnts;
  for v = 0 to st.nvars - 1 do
    let r = st.reason.(v) in
    if value_var st v <> 0 && r <> Clause.cref_undef then
      (* deleted reasons can only back level-0 literals (inprocessing runs
         at level 0; reduce_db never deletes locked clauses), and level-0
         reasons are never dereferenced — drop them *)
      st.reason.(v) <-
        (if Clause.deleted db r then Clause.cref_undef
         else Clause.reloc ~src:db ~dst:ndb r)
    else st.reason.(v) <- Clause.cref_undef
  done;
  st.db <- ndb;
  Array.iter (fun w -> w.wsize <- 0) st.watches;
  Vec.iter (fun c -> attach_clause st c) st.clauses;
  Vec.iter (fun c -> attach_clause st c) st.learnts

let reduce_db st =
  let db = st.db in
  (* Sort learnts: prefer deleting low-activity, high-LBD clauses. *)
  let arr = Array.init (Vec.size st.learnts) (Vec.get st.learnts) in
  Array.sort
    (fun a b ->
      let c = Float.compare (Clause.activity db a) (Clause.activity db b) in
      if c <> 0 then c else Int.compare (Clause.lbd db b) (Clause.lbd db a))
    arr;
  let n = Array.length arr in
  let limit = n / 2 in
  let deleted = ref 0 in
  Array.iteri
    (fun idx c ->
      if
        idx < limit
        && Clause.size db c > 2
        && (not (locked st c))
        && Clause.lbd db c > 2
      then begin
        record_proof_delete st c;
        Clause.set_deleted db c;
        incr deleted
      end)
    arr;
  Vec.filter_in_place (fun c -> not (Clause.deleted db c)) st.learnts;
  st.stats.Stats.deleted_clauses <- st.stats.Stats.deleted_clauses + !deleted;
  gc st

(* The next decision variable, or [-1] when every variable is assigned. *)
let pick_branch_var st =
  let v =
    if
      st.cfg.random_var_freq > 0.
      && Rng.float st.rng < st.cfg.random_var_freq
      && st.nvars > 0
    then
      let v = Rng.int st.rng st.nvars in
      if value_var st v = 0 then v else -1
    else -1
  in
  let v = ref v in
  while !v < 0 && not (Heap.is_empty st.order) do
    let u = Heap.remove_max st.order in
    if value_var st u = 0 then v := u
  done;
  !v

(* Geometric limits overflow float range quickly (inc^k); [int_of_float]
   of an out-of-range float is unspecified, so clamp to [max_int]. *)
let restart_limit_of_config cfg k =
  match cfg.restart with
  | Luby_restarts base -> base * Luby.get k
  | Geometric (first, inc) ->
      let f = float_of_int first *. (inc ** float_of_int k) in
      if f >= float_of_int max_int then max_int else int_of_float f

let restart_limit st k = restart_limit_of_config st.cfg k

let extract_model st =
  Array.init st.nvars (fun v -> value_var st v > 0)

exception Found_unsat
exception Assumption_failed
exception Out_of_budget
exception Out_of_memory_budget

(* Size each watch list for the clauses [load_clauses] is about to attach:
   a clause of two or more literals is watched from the negations of its
   first two. The count is taken on the CNF as given; when a level-0 unit
   met during loading shifts a clause's first two literals, [wl_push] grows
   the affected lists as usual. The counts accumulate in [wsize] until the
   arrays are allocated. *)
let size_watches st cnf =
  let watches = st.watches in
  Cnf.iter_clauses' cnf ~f:(fun arena off len ->
      if len >= 2 then begin
        let w0 = watches.(Lit.negate arena.(off)) in
        let w1 = watches.(Lit.negate arena.(off + 1)) in
        w0.wsize <- w0.wsize + 2;
        w1.wsize <- w1.wsize + 2
      end);
  Array.iter
    (fun w ->
      if w.wsize > 0 then begin
        w.wdata <- Array.make w.wsize 0;
        w.wsize <- 0
      end)
    watches

(* Load the problem clauses into a fresh state; level-0 units go straight
   onto the trail, and [st.ok] turns false on an immediate conflict. A
   counting pass per clause skips satisfied clauses and spots false
   literals. A clause with none is copied once, straight from the CNF arena
   into the solver's; only one that loses literals goes through [scratch].
   Clauses and watches are attached in CNF order. *)
let load_clauses st cnf =
  size_watches st cnf;
  let scratch = ref [||] in
  Cnf.iter_clauses' cnf ~f:(fun arena off len ->
      if st.ok then begin
        let satisfied = ref false in
        let keep = ref 0 in
        for k = off to off + len - 1 do
          match value_lit st arena.(k) with
          | 1 -> satisfied := true
          | 0 -> incr keep
          | _ -> ()
        done;
        if not !satisfied then
          if !keep = 0 then begin
            record_proof_add st [];
            st.ok <- false
          end
          else if !keep = 1 then begin
            let unit = ref 0 in
            for k = off to off + len - 1 do
              if value_lit st arena.(k) = 0 then unit := arena.(k)
            done;
            enqueue st !unit Clause.cref_undef;
            if propagate st <> Clause.cref_undef then begin
              record_proof_add st [];
              st.ok <- false
            end
          end
          else begin
            let c =
              if !keep = len then Clause.alloc st.db arena off len
              else begin
                if Array.length !scratch < !keep then
                  scratch := Array.make (max !keep 16) 0;
                let out = !scratch in
                let j = ref 0 in
                for k = off to off + len - 1 do
                  let l = arena.(k) in
                  if value_lit st l = 0 then begin
                    out.(!j) <- l;
                    incr j
                  end
                done;
                Clause.alloc st.db out 0 !keep
              end
            in
            Vec.push st.clauses c;
            attach_clause st c
          end
      end);
  for v = 0 to st.nvars - 1 do
    if value_var st v = 0 then Heap.insert st.order v
  done

type solver = {
  st : state;
  mutable max_learnts : int;
  mutable restart_count : int;
  mutable vivify_head : int;
}

type query_result =
  | Q_sat of bool array
  | Q_unsat
  | Q_unknown
  | Q_memout

let create ?(config = default) ?proof cnf =
  let st = create config cnf proof in
  load_clauses st cnf;
  {
    st;
    max_learnts = max 1000 (Vec.size st.clauses / 3);
    restart_count = 0;
    vivify_head = 0;
  }

let solver_stats s = s.st.stats

(* ---------- bounded inprocessing ----------

   Runs between restarts, at decision level 0, under an explicit work
   budget ([cfg.inprocess_budget], roughly propagations). Two rewriting
   rules, both producing RUP clauses so certified runs stay checkable:

   - self-subsumption: if (C \ {l}) ⊆ D and ¬l ∈ D then D' = D \ {¬l} is
     the resolvent of C and D on l, hence implied and RUP (assuming ¬D'
     makes C force l, falsifying D).
   - vivification: detach C = (l1 ... lk), assume ¬l1, ¬l2, ... in order;
     a false li is dropped (propagation from the earlier negations already
     derives ¬li), a true li or a propagation conflict closes a shorter
     prefix clause that is RUP by the same propagations. Detaching first is
     essential: C must not propagate in its own vivification.

   DRAT obligation: the strengthened clause is added *before* the original
   is deleted, so the checker's database never loses the inference. *)

let subsume_size_limit = 16

(* Install the RUP strengthening [out] of problem clause [c]; [c] must
   already be detached. Emits the addition before the deletion, drops
   literals false at level 0 from [out] (also RUP: level-0 units falsify
   them), and when [out] is satisfied at level 0 only deletes [c] — the
   replacement would be redundant. The surviving literals are all unassigned
   at level 0, so attaching the replacement respects the watch invariant.
   Raises [Found_unsat] on a derived level-0 conflict. *)
let install_strengthened st c out =
  let sat0 = ref false and undef = ref 0 in
  Array.iter
    (fun l ->
      match value_lit st l with
      | 1 -> sat0 := true
      | 0 -> incr undef
      | _ -> ())
    out;
  if !sat0 then begin
    (* the original is satisfied by level-0 units: drop it outright *)
    record_proof_delete st c;
    Clause.set_deleted st.db c
  end
  else begin
    let final = Array.make (max !undef 1) 0 in
    let j = ref 0 in
    Array.iter
      (fun l ->
        if value_lit st l = 0 then begin
          final.(!j) <- l;
          incr j
        end)
      out;
    record_proof_add_prefix st final !undef;
    record_proof_delete st c;
    Clause.set_deleted st.db c;
    match !undef with
    | 0 ->
        st.ok <- false;
        raise Found_unsat
    | 1 ->
        enqueue st final.(0) Clause.cref_undef;
        if propagate st <> Clause.cref_undef then begin
          record_proof_add st [];
          st.ok <- false;
          raise Found_unsat
        end
    | _ ->
        let nc = Clause.alloc st.db final 0 !undef in
        attach_clause st nc;
        Vec.push st.clauses nc
  end

(* Replace attached problem clause [c] by [c] minus [remove], at level 0. *)
let strengthen_clause st c ~remove =
  let db = st.db in
  let n = Clause.size db c in
  let out = Array.make (n - 1) 0 in
  let j = ref 0 in
  for k = 0 to n - 1 do
    let q = Clause.lit db c k in
    if q <> remove then begin
      out.(!j) <- q;
      incr j
    end
  done;
  detach_clause st c;
  install_strengthened st c out

let self_subsume st fuel strengthened removed =
  let db = st.db in
  let nlits = max (2 * st.nvars) 1 in
  let occ = Array.make nlits [] in
  Vec.iter
    (fun c ->
      if (not (Clause.deleted db c)) && Clause.size db c <= subsume_size_limit
      then
        for k = 0 to Clause.size db c - 1 do
          let l = Clause.lit db c k in
          occ.(l) <- c :: occ.(l)
        done)
    st.clauses;
  let mark = Array.make nlits 0 in
  let stamp = ref 0 in
  let n0 = Vec.size st.clauses in
  let i = ref 0 in
  while !i < n0 && !fuel > 0 do
    let c = Vec.get st.clauses !i in
    incr i;
    if (not (Clause.deleted db c)) && Clause.size db c <= subsume_size_limit
    then begin
      incr stamp;
      let csize = Clause.size db c in
      for k = 0 to csize - 1 do
        mark.(Clause.lit db c k) <- !stamp
      done;
      let k = ref 0 in
      while !k < csize && !fuel > 0 do
        let l = Clause.lit db c !k in
        incr k;
        let nl = Lit.negate l in
        List.iter
          (fun d ->
            if
              !fuel > 0 && d <> c
              && (not (Clause.deleted db d))
              && (not (Clause.deleted db c))
              && Clause.size db d >= csize
              && not (locked st d)
            then begin
              let dsize = Clause.size db d in
              fuel := !fuel - dsize;
              let found = ref 0 and has_nl = ref false in
              for q = 0 to dsize - 1 do
                let lq = Clause.lit db d q in
                if lq = nl then has_nl := true
                else if lq <> l && mark.(lq) = !stamp then incr found
              done;
              if !has_nl && !found >= csize - 1 then begin
                strengthen_clause st d ~remove:nl;
                incr strengthened;
                incr removed
              end
            end)
          occ.(nl)
      done
    end
  done

let vivify s fuel strengthened removed =
  let st = s.st in
  let n0 = Vec.size st.clauses in
  let tried = ref 0 in
  while n0 > 0 && !tried < n0 && !fuel > 0 do
    incr tried;
    let idx = s.vivify_head mod n0 in
    s.vivify_head <- s.vivify_head + 1;
    let c = Vec.get st.clauses idx in
    let db = st.db in
    if (not (Clause.deleted db c)) && Clause.size db c >= 3 && not (locked st c)
    then begin
      let n = Clause.size db c in
      fuel := !fuel - n;
      let satisfied = ref false in
      for k = 0 to n - 1 do
        if value_lit st (Clause.lit db c k) = 1 then satisfied := true
      done;
      if !satisfied then begin
        (* true at level 0 in every model: deleting it preserves models *)
        detach_clause st c;
        record_proof_delete st c;
        Clause.set_deleted db c;
        incr strengthened
      end
      else begin
        let lits = Array.init n (Clause.lit db c) in
        detach_clause st c;
        let props0 = st.stats.Stats.propagations in
        let kept = ref [] in
        let kept_n = ref 0 in
        let closed = ref false in
        (* the kept prefix is RUP on its own: drop the suffix *)
        let stop = ref false in
        let k = ref 0 in
        while (not !stop) && !k < n do
          let l = lits.(!k) in
          incr k;
          (match value_lit st l with
          | 1 ->
              (* implied by the negated prefix: close the clause here *)
              kept := l :: !kept;
              incr kept_n;
              closed := true;
              stop := true
          | -1 -> () (* redundant: already false under the prefix *)
          | _ ->
              (* internal probing level: bypass [new_decision_level] so the
                 depth telemetry only counts real search levels *)
              Vec.push st.trail_lim (Vec.size st.trail);
              enqueue st (Lit.negate l) Clause.cref_undef;
              kept := l :: !kept;
              incr kept_n;
              if propagate st <> Clause.cref_undef then begin
                closed := true;
                stop := true
              end);
          if st.stats.Stats.propagations - props0 > !fuel then stop := true
        done;
        (* a budget stop mid-scan must keep the unexamined suffix *)
        if not !closed then
          while !k < n do
            kept := lits.(!k) :: !kept;
            incr kept_n;
            incr k
          done;
        cancel_until st 0;
        fuel := !fuel - (st.stats.Stats.propagations - props0);
        if !kept_n < n then begin
          let out = Array.of_list (List.rev !kept) in
          incr strengthened;
          removed := !removed + (n - !kept_n);
          install_strengthened st c out
        end
        else attach_clause st c
      end
    end
  done

let inprocess s on_event =
  let st = s.st in
  assert (decision_level st = 0);
  let fuel = ref st.cfg.inprocess_budget in
  let strengthened = ref 0 in
  let removed = ref 0 in
  let finish () =
    Vec.filter_in_place (fun c -> not (Clause.deleted st.db c)) st.clauses;
    let db = st.db in
    if Clause.wasted db * 4 > Clause.fill db then gc st;
    st.stats.Stats.inprocess_rounds <- st.stats.Stats.inprocess_rounds + 1;
    st.stats.Stats.inprocess_strengthened <-
      st.stats.Stats.inprocess_strengthened + !strengthened;
    st.stats.Stats.inprocess_literals <-
      st.stats.Stats.inprocess_literals + !removed;
    match on_event with
    | None -> ()
    | Some f -> f (Event.Inprocess (!strengthened, !removed))
  in
  (try
     self_subsume st fuel strengthened removed;
     vivify s fuel strengthened removed
   with Found_unsat ->
     finish ();
     raise Found_unsat);
  finish ()

(* One search episode under the given assumption literals. The trail is
   reset to level 0 first; learnt clauses and activities persist across
   calls. *)
let run_search s budget assumptions =
  let st = s.st in
  let assumptions = Array.of_list assumptions in
  Array.iter
    (fun l ->
      if Lit.var l < 0 || Lit.var l >= st.nvars then
        invalid_arg "Solver.solve_with: assumption variable out of range")
    assumptions;
  cancel_until st 0;
  (* one stamp per decision level for [analyze]'s LBD count: a level opens
     per assumption and per free decision on an unassigned variable *)
  let max_level = st.nvars + Array.length assumptions in
  if Array.length st.level_stamp <= max_level then
    st.level_stamp <- Array.make (max_level + 1) 0;
  (* wall clock, not [Sys.time]: under a multi-domain sweep, process CPU
     time accrues ~jobs× faster and budgets would expire early *)
  let start_time = Unix.gettimeofday () in
  let start_conflicts = st.stats.Stats.conflicts in
  let conflicts_at_restart = ref 0 in
  let poll_every = max 1 budget.poll_every in
  let at_poll_point () = st.stats.Stats.conflicts mod poll_every = 0 in
  (* [on_event] is matched at every emission site instead of being wrapped
     in a default closure: with the hook absent the emission is one branch
     on an immediate and no event value is ever allocated. *)
  let on_event = budget.on_event in
  let memory_exceeded () =
    match budget.max_memory_mb with
    | None -> false
    | Some mb ->
        let words = heap_words () in
        Stats.note_heap_words st.stats words;
        (match on_event with
        | None -> ()
        | Some f -> f (Event.Memout_poll words));
        words_to_megabytes words > float_of_int mb
  in
  let time_or_interrupt_exceeded () =
    (match budget.max_seconds with
    | Some sec -> Unix.gettimeofday () -. start_time > sec
    | None -> false)
    || match budget.interrupt with
       | Some f ->
           (* a hook that raises is treated as an interrupt that fired: the
              cell ends as [Q_unknown] (classifiable by the supervisor)
              instead of crashing with a foreign exception *)
           (try f () with _ -> true)
       | None -> false
  in
  let over_conflicts () =
    match budget.max_conflicts with
    | Some m -> st.stats.Stats.conflicts - start_conflicts >= m
    | None -> false
  in
  (* Conflict-free episodes (a decision dive on a huge satisfiable
     instance) never hit the conflict-granularity polls above, so the wall
     clock, interrupt and memory limits are also polled on a propagation
     counter: one check every [poll_every * 64] propagations keeps the
     [poll_every] dial meaningful on both axes. *)
  let passive =
    budget.max_seconds = None && budget.interrupt = None
    && budget.max_memory_mb = None
  in
  let prop_poll_stride = poll_every * 64 in
  let next_prop_poll = ref (st.stats.Stats.propagations + prop_poll_stride) in
  let result = ref Q_unknown in
  (try
     if not st.ok then raise Found_unsat;
     if propagate st <> Clause.cref_undef then begin
       record_proof_add st [];
       raise Found_unsat
     end;
     let finished = ref false in
     while not !finished do
       let confl = propagate st in
       if confl <> Clause.cref_undef then begin
         st.stats.Stats.conflicts <- st.stats.Stats.conflicts + 1;
         incr conflicts_at_restart;
         if decision_level st = 0 then begin
           record_proof_add st [];
           raise Found_unsat
         end;
         let blevel = analyze st confl in
         let learnt = st.learnt and n = st.learnt_size in
         Stats.bump_lbd st.stats st.learnt_lbd;
         record_proof_add_prefix st learnt n;
         cancel_until st blevel;
         (if n = 1 then enqueue st learnt.(0) Clause.cref_undef
          else begin
            let c = Clause.alloc ~learnt:true st.db learnt 0 n in
            Clause.set_lbd st.db c st.learnt_lbd;
            Vec.push st.learnts c;
            attach_clause st c;
            cla_bump st c;
            enqueue st learnt.(0) c
          end);
         st.stats.Stats.learnt_clauses <- st.stats.Stats.learnt_clauses + 1;
         var_decay_tick st;
         cla_decay_tick st;
         if at_poll_point () then begin
           if memory_exceeded () then raise Out_of_memory_budget;
           if time_or_interrupt_exceeded () then raise Out_of_budget
         end;
         if over_conflicts () then raise Out_of_budget
       end
       else begin
         if
           (not passive)
           && st.stats.Stats.propagations >= !next_prop_poll
         then begin
           next_prop_poll := st.stats.Stats.propagations + prop_poll_stride;
           if memory_exceeded () then raise Out_of_memory_budget;
           if time_or_interrupt_exceeded () then raise Out_of_budget
         end;
         if !conflicts_at_restart >= restart_limit st s.restart_count then begin
           s.restart_count <- s.restart_count + 1;
           conflicts_at_restart := 0;
           st.stats.Stats.restarts <- st.stats.Stats.restarts + 1;
           (match on_event with
           | None -> ()
           | Some f -> f (Event.Restart s.restart_count));
           cancel_until st 0;
           if
             st.cfg.inprocess_every > 0
             && s.restart_count mod st.cfg.inprocess_every = 0
           then inprocess s on_event
         end
         else begin
           if Vec.size st.learnts >= s.max_learnts then begin
             let before = Vec.size st.learnts in
             reduce_db st;
             (match on_event with
             | None -> ()
             | Some f ->
                 f (Event.Reduce_db (before, before - Vec.size st.learnts)));
             s.max_learnts <- int_of_float (float_of_int s.max_learnts *. 1.1)
           end;
           (* establish pending assumptions before free decisions *)
           let dl = decision_level st in
           if dl < Array.length assumptions then begin
             let l = assumptions.(dl) in
             match value_lit st l with
             | -1 -> raise Assumption_failed
             | 1 ->
                 (* already implied: open an empty decision level *)
                 new_decision_level st
             | _ ->
                 st.stats.Stats.decisions <- st.stats.Stats.decisions + 1;
                 new_decision_level st;
                 enqueue st l Clause.cref_undef
           end
           else
             let v = pick_branch_var st in
             if v < 0 then begin
               result := Q_sat (extract_model st);
               finished := true
             end
             else begin
               st.stats.Stats.decisions <- st.stats.Stats.decisions + 1;
               new_decision_level st;
               enqueue st (Lit.make v st.phase.(v)) Clause.cref_undef
             end
         end
       end
     done
   with
  | Found_unsat ->
      st.ok <- false;
      result := Q_unsat
  | Assumption_failed -> result := Q_unsat
  | Out_of_budget -> result := Q_unknown
  | Out_of_memory_budget -> result := Q_memout);
  cancel_until st 0;
  (* One end-of-episode heap sample so short runs (and runs without a
     memory ceiling, which never poll) still report a peak. *)
  Stats.note_heap_words st.stats (heap_words ());
  !result

let solve_with ?(budget = no_budget) ?(assumptions = []) s =
  run_search s budget assumptions

let solve ?(config = default) ?(budget = no_budget) ?proof cnf =
  let s = create ~config ?proof cnf in
  let result =
    match run_search s budget [] with
    | Q_sat model -> Sat model
    | Q_unsat -> Unsat
    | Q_unknown -> Unknown
    | Q_memout -> Memout
  in
  (result, s.st.stats)

let check_model cnf model =
  let ok = ref true in
  Cnf.iter_clauses' cnf ~f:(fun arena off len ->
      let sat = ref false in
      for k = off to off + len - 1 do
        let l = arena.(k) in
        let v = Lit.var l in
        if v < Array.length model && model.(v) = Lit.sign l then sat := true
      done;
      if not !sat then ok := false);
  !ok

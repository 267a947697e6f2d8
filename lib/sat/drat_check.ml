(* Forward DRAT checker on the solver's propagation kernel.

   The data layout and the hot loop are those of [Solver.propagate]. Clauses
   live in one flat int arena as [len; lit0; lit1; ...], found through a
   clause id -> offset table whose entry is -1 once the clause is deleted.
   Values are indexed by literal, the trail is an int array, and each
   literal's watch list holds one-word (blocker, clause id) watchers
   ({!Watch}). The two watched literals of a clause are always its first
   two slots, and deletion unwatches eagerly, so a watcher visit never
   asks whether its clause is live.

   Propagation is incremental: facts derived at the top level stay on a
   persistent trail across proof steps, and each RUP query assumes the
   candidate clause's negation on top of that trail and undoes exactly its
   own assignments. The two lookup structures that only some proofs need
   are built on first use and maintained from then on: the literal-set
   index that resolves deletions, and the occurrence lists of the RAT
   fallback (which makes the checker decide DRAT rather than just RUP). *)

type stats = {
  mutable additions : int;
  mutable rup_steps : int;
  mutable rat_steps : int;
  mutable deletions : int;
  mutable ignored_deletions : int;
  mutable propagations : int;
}

let fresh_stats () =
  {
    additions = 0;
    rup_steps = 0;
    rat_steps = 0;
    deletions = 0;
    ignored_deletions = 0;
    propagations = 0;
  }

let pp_stats fmt s =
  Format.fprintf fmt
    "additions=%d (rup %d, rat %d) deletions=%d (ignored %d) propagations=%d"
    s.additions s.rup_steps s.rat_steps s.deletions s.ignored_deletions
    s.propagations

type error =
  | Bad_step of { step_index : int; reason : string }
  | No_empty_clause of { num_steps : int }

let pp_error fmt = function
  | Bad_step { step_index; reason } ->
      Format.fprintf fmt "proof step %d: %s" step_index reason
  | No_empty_clause { num_steps } ->
      Format.fprintf fmt
        "proof trace (%d steps) does not derive the empty clause" num_steps

type checker = {
  mutable nvars : int;
  mutable vals : int array; (* by literal: 1 true, -1 false, 0 unassigned *)
  mutable arena : int array; (* [len; lit0; lit1; ...] per clause *)
  mutable fill : int;
  mutable offs : int array; (* clause id -> arena offset; -1 once deleted *)
  mutable nclauses : int;
  (* indexed by literal: a list fires when its literal becomes true, so
     [watches.(l)] holds the clauses watching [negate l], as in [Solver] *)
  mutable watches : Watch.t array;
  (* persistent top-level trail; entries above a RUP query's mark are
     temporary and undone when the query finishes *)
  mutable trail : int array;
  mutable tsize : int;
  mutable qhead : int;
  mutable contradiction : bool; (* top-level conflict: UNSAT established *)
  (* the clauses containing [l], for the RAT fallback, deleted ones dropped
     in passing; [[||]] until the first RAT query *)
  mutable occs : int Vec.t array;
  (* literal-set hash -> live clause ids with that hash, newest first, for
     deletions; [None] until the first deletion *)
  mutable index : (int, int list ref) Hashtbl.t option;
  (* by literal: the stamp of the last literal set marked, which drops
     duplicate literals from stored clauses and matches deletions *)
  mutable mark : int array;
  mutable stamp : int;
  stats : stats;
}

(* Watch lists as in [Solver]: one-word watchers in {!Watch}'s layout,
   packed and pushed by local copies of [Solver]'s functions, for the same
   reason: they inline into the loop below. The blocker is some other
   literal of the clause; when it is true the visit touches no clause
   memory. *)
let[@inline] watcher blocker cid = (blocker lsl 32) lor cid
let[@inline] blocker_of w = w lsr 32
let[@inline] cid_of w = w land 0xFFFF_FFFF

let wl_push (w : Watch.t) blocker cid =
  let cap = Array.length w.data in
  if w.size = cap then begin
    let ndata = Array.make (max 4 (2 * cap)) 0 in
    Array.blit w.data 0 ndata 0 w.size;
    w.data <- ndata
  end;
  w.data.(w.size) <- watcher blocker cid;
  w.size <- w.size + 1

let wl_remove (w : Watch.t) cid =
  let i = ref 0 in
  while !i < w.size && cid_of w.data.(!i) <> cid do
    incr i
  done;
  if !i < w.size then begin
    w.data.(!i) <- w.data.(w.size - 1);
    w.size <- w.size - 1
  end

let new_watches n = Array.init n (fun _ -> Watch.create ())

(* The arena and the offset table are sized for [cnf] plus room for lemmas
   of the same average shape; both double when a proof outgrows them. *)
let create cnf =
  let nvars = max (Cnf.num_vars cnf) 1 in
  let nclauses = Cnf.num_clauses cnf in
  Watch.check "Drat_check" ~lits:(2 * nvars) ~refs:nclauses;
  {
    nvars;
    vals = Array.make (2 * nvars) 0;
    arena = Array.make (max 256 (2 * (Cnf.num_lits cnf + nclauses))) 0;
    fill = 0;
    offs = Array.make (max 64 (2 * nclauses)) (-1);
    nclauses = 0;
    watches = new_watches (2 * nvars);
    trail = Array.make nvars 0;
    tsize = 0;
    qhead = 0;
    contradiction = false;
    occs = [||];
    index = None;
    mark = Array.make (2 * nvars) 0;
    stamp = 0;
    stats = fresh_stats ();
  }

let grow st v =
  if v >= st.nvars then begin
    Watch.check "Drat_check" ~lits:(2 * (v + 1)) ~refs:0;
    let n = max (v + 1) (2 * st.nvars) in
    let extend a fresh =
      let b = fresh (2 * n) in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    st.vals <- extend st.vals (fun k -> Array.make k 0);
    st.mark <- extend st.mark (fun k -> Array.make k 0);
    st.watches <- extend st.watches new_watches;
    if st.occs <> [||] then
      st.occs <-
        extend st.occs (fun k -> Array.init k (fun _ -> Vec.create ~dummy:0 ()));
    let t = Array.make n 0 in
    Array.blit st.trail 0 t 0 st.tsize;
    st.trail <- t;
    st.nvars <- n
  end

let assign st l =
  st.vals.(l) <- 1;
  st.vals.(Lit.negate l) <- -1;
  st.trail.(st.tsize) <- l;
  st.tsize <- st.tsize + 1

(* Watched-literal propagation from [qhead]; returns [true] on conflict.
   On conflict the queue is drained so the caller can undo cleanly. The
   loop is [Solver.propagate]'s: raw arena, raw watcher arrays, a blocker
   test before any clause read, and no allocation on any path. *)
let propagate st =
  let conflict = ref false in
  let arena = st.arena and vals = st.vals and offs = st.offs in
  while (not !conflict) && st.qhead < st.tsize do
    let p = st.trail.(st.qhead) in
    st.qhead <- st.qhead + 1;
    st.stats.propagations <- st.stats.propagations + 1;
    let false_lit = Lit.negate p in
    let ws = st.watches.(p) in
    let data = ws.Watch.data in
    let n = ws.Watch.size in
    let i = ref 0 and j = ref 0 in
    while !i < n do
      let w = data.(!i) in
      let blocker = blocker_of w in
      incr i;
      if vals.(blocker) = 1 then begin
        data.(!j) <- w;
        incr j
      end
      else begin
        let cid = cid_of w in
        let base = offs.(cid) + 1 in
        (* make sure the false literal is at position 1 *)
        let l0 = arena.(base) in
        if l0 = false_lit then begin
          arena.(base) <- arena.(base + 1);
          arena.(base + 1) <- l0
        end;
        let first = arena.(base) in
        if first <> blocker && vals.(first) = 1 then begin
          (* satisfied: keep the watcher, refresh the blocker *)
          data.(!j) <- watcher first cid;
          incr j
        end
        else begin
          (* find a replacement watch among positions 2.. *)
          let size = arena.(base - 1) in
          let k = ref 2 in
          while !k < size && vals.(arena.(base + !k)) = -1 do
            incr k
          done;
          if !k < size then begin
            arena.(base + 1) <- arena.(base + !k);
            arena.(base + !k) <- false_lit;
            (* never the list being traversed: the new watch is non-false *)
            wl_push st.watches.(Lit.negate arena.(base + 1)) first cid
          end
          else begin
            (* unit or conflicting *)
            data.(!j) <- watcher first cid;
            incr j;
            if vals.(first) = -1 then begin
              conflict := true;
              st.qhead <- st.tsize;
              while !i < n do
                data.(!j) <- data.(!i);
                incr i;
                incr j
              done
            end
            else assign st first
          end
        end
      end
    done;
    ws.Watch.size <- !j
  done;
  !conflict

let undo_to st mark =
  while st.tsize > mark do
    st.tsize <- st.tsize - 1;
    let l = st.trail.(st.tsize) in
    st.vals.(l) <- 0;
    st.vals.(Lit.negate l) <- 0
  done;
  st.qhead <- min st.qhead mark

(* The literals of live clause [cid], in arena order. *)
let clause_lits st cid =
  let off = st.offs.(cid) in
  List.init st.arena.(off) (fun k -> st.arena.(off + 1 + k))

(* Deletions find their clause by an order-independent hash of its literal
   set (stored clauses hold no duplicate literals), checked against the
   candidates' literals. *)
let lit_hash l = (l + 1) * 0x2545F4914F6CDD1D

let clause_hash st cid =
  let off = st.offs.(cid) in
  let h = ref 0 in
  for k = off + 1 to off + st.arena.(off) do
    h := !h + lit_hash st.arena.(k)
  done;
  !h

let index_add st index cid =
  let key = clause_hash st cid in
  match Hashtbl.find_opt index key with
  | Some ids -> ids := cid :: !ids
  | None -> Hashtbl.add index key (ref [ cid ])

(* Account for clause [cid] under the persistent assignment: a falsified
   clause establishes the contradiction, a unit is asserted on the
   persistent trail and propagated, anything longer gets two non-false
   watches. *)
let install st cid =
  let off = st.offs.(cid) in
  let len = st.arena.(off) in
  let base = off + 1 in
  let arena = st.arena in
  (* move up to two non-false literals into the watch slots *)
  let found = ref 0 in
  let k = ref base in
  while !found < 2 && !k < base + len do
    if st.vals.(arena.(!k)) <> -1 then begin
      let tmp = arena.(base + !found) in
      arena.(base + !found) <- arena.(!k);
      arena.(!k) <- tmp;
      incr found
    end;
    incr k
  done;
  if !found = 0 then st.contradiction <- true
  else begin
    if len >= 2 then begin
      wl_push st.watches.(Lit.negate arena.(base)) arena.(base + 1) cid;
      wl_push st.watches.(Lit.negate arena.(base + 1)) arena.(base) cid
    end;
    if !found = 1 && st.vals.(arena.(base)) = 0 then begin
      assign st arena.(base);
      if propagate st then st.contradiction <- true
    end
  end

(* Append a clause to the arena, register it with whichever lookup
   structures exist, and install it. *)
let grow_for st lits = List.iter (fun l -> grow st (Lit.var l)) lits

let add_clause st lits =
  grow_for st lits;
  let len = List.length lits (* at most: duplicates are dropped *) in
  if st.fill + len + 1 > Array.length st.arena then begin
    let a = Array.make (max (st.fill + len + 1) (2 * Array.length st.arena)) 0 in
    Array.blit st.arena 0 a 0 st.fill;
    st.arena <- a
  end;
  if st.nclauses = Array.length st.offs then begin
    Watch.check "Drat_check" ~lits:0 ~refs:(st.nclauses + 1);
    let o = Array.make (2 * st.nclauses) (-1) in
    Array.blit st.offs 0 o 0 st.nclauses;
    st.offs <- o
  end;
  let off = st.fill in
  st.stamp <- st.stamp + 1;
  let n = ref 0 in
  List.iter
    (fun l ->
      if st.mark.(l) <> st.stamp then begin
        st.mark.(l) <- st.stamp;
        incr n;
        st.arena.(off + !n) <- l
      end)
    lits;
  st.arena.(off) <- !n;
  st.fill <- off + 1 + !n;
  let cid = st.nclauses in
  st.offs.(cid) <- off;
  st.nclauses <- cid + 1;
  if st.occs <> [||] then
    List.iter (fun l -> Vec.push st.occs.(l) cid) (clause_lits st cid);
  Option.iter (fun index -> index_add st index cid) st.index;
  install st cid

(* RUP: assume the negation of every literal on top of the persistent
   trail; derivable iff propagation conflicts. Tautologies and clauses
   already satisfied at the top level conflict immediately. *)
let rup st lits =
  st.contradiction
  ||
  let mark = st.tsize in
  let rec assume = function
    | [] -> propagate st
    | l :: rest -> (
        match st.vals.(l) with
        | 1 -> true
        | -1 -> assume rest
        | _ ->
            assign st (Lit.negate l);
            assume rest)
  in
  let conflict = assume lits in
  undo_to st mark;
  conflict

(* RAT on the first literal (the DRAT pivot convention): every live clause
   containing the pivot's negation must yield a RUP resolvent. Occurrence
   lists are built here on first use and compacted in passing. *)
let rat st lits =
  match lits with
  | [] -> false
  | pivot :: _ ->
      let neg = Lit.negate pivot in
      if Lit.var neg >= st.nvars then true (* no clause can contain it *)
      else begin
        if st.occs = [||] then begin
          st.occs <- Array.init (2 * st.nvars) (fun _ -> Vec.create ~dummy:0 ());
          for cid = 0 to st.nclauses - 1 do
            if st.offs.(cid) >= 0 then
              List.iter (fun l -> Vec.push st.occs.(l) cid) (clause_lits st cid)
          done
        end;
        let occ = st.occs.(neg) in
        let ok = ref true in
        let j = ref 0 in
        for i = 0 to Vec.size occ - 1 do
          let cid = Vec.get occ i in
          if st.offs.(cid) >= 0 then begin
            Vec.set occ !j cid;
            incr j;
            if !ok then begin
              let resolvent =
                List.filter (fun l -> l <> pivot) lits
                @ List.filter (fun l -> l <> neg) (clause_lits st cid)
              in
              if not (rup st resolvent) then ok := false
            end
          end
        done;
        Vec.shrink occ !j;
        !ok
      end

(* Deleting a clause that is not present is a tolerated no-op (the
   drat-trim convention): solvers simplify at load time, so traces
   legitimately reference clauses the checker never saw. Deletions of unit
   clauses do not retract their propagations (also as in drat-trim). A
   deletion names a literal set and removes the newest live clause with
   exactly that set. *)
let delete st lits =
  let index =
    match st.index with
    | Some index -> index
    | None ->
        let index = Hashtbl.create (2 * st.nclauses) in
        for cid = 0 to st.nclauses - 1 do
          if st.offs.(cid) >= 0 then index_add st index cid
        done;
        st.index <- Some index;
        index
  in
  let ignored () =
    st.stats.ignored_deletions <- st.stats.ignored_deletions + 1
  in
  if List.exists (fun l -> Lit.var l >= st.nvars) lits then ignored ()
  else begin
    st.stamp <- st.stamp + 1;
    let n = ref 0 and key = ref 0 in
    List.iter
      (fun l ->
        if st.mark.(l) <> st.stamp then begin
          st.mark.(l) <- st.stamp;
          incr n;
          key := !key + lit_hash l
        end)
      lits;
    let same cid =
      let off = st.offs.(cid) in
      st.arena.(off) = !n
      && List.for_all
           (fun l -> st.mark.(l) = st.stamp)
           (clause_lits st cid)
    in
    match Hashtbl.find_opt index !key with
    | None -> ignored ()
    | Some ids -> (
        match List.find_opt same !ids with
        | None -> ignored ()
        | Some cid ->
            ids := List.filter (fun c -> c <> cid) !ids;
            let off = st.offs.(cid) in
            if st.arena.(off) >= 2 then begin
              wl_remove st.watches.(Lit.negate st.arena.(off + 1)) cid;
              wl_remove st.watches.(Lit.negate st.arena.(off + 2)) cid
            end;
            st.offs.(cid) <- -1;
            st.stats.deletions <- st.stats.deletions + 1)
  end

let load cnf =
  let st = create cnf in
  Cnf.iter_clauses' cnf ~f:(fun arena off len ->
      if not st.contradiction then
        add_clause st (List.init len (fun k -> arena.(off + k))));
  st

let is_rup cnf clause =
  let st = load cnf in
  grow_for st clause;
  rup st clause

let is_rat cnf clause =
  let st = load cnf in
  grow_for st clause;
  rup st clause || rat st clause

(* DRAT lets a proof name variables the CNF lacks. They are numbered
   densely above the CNF's, in order of first appearance, so the per-literal
   arrays grow with the proof rather than with its largest literal. CNF
   variables keep their numbers, and a proof that names no new variable
   (the solver's own) is checked as it stands. *)
let renumber cnf =
  let base = Cnf.num_vars cnf in
  let fresh = Hashtbl.create 16 in
  let rename l =
    let v = Lit.var l in
    if v < base then l
    else
      let v' =
        match Hashtbl.find_opt fresh v with
        | Some v' -> v'
        | None ->
            let v' = base + Hashtbl.length fresh in
            Hashtbl.add fresh v v';
            v'
      in
      Lit.make v' (Lit.sign l)
  in
  fun lits ->
    if List.for_all (fun l -> Lit.var l < base) lits then lits
    else List.map rename lits

let check cnf proof =
  let st = load cnf in
  let renumber = renumber cnf in
  let steps = Proof.steps proof in
  let num_steps = List.length steps in
  let rec go i = function
    | _ when st.contradiction -> Ok st.stats
    | [] -> Error (No_empty_clause { num_steps })
    | Proof.Add lits :: rest ->
        let lits = renumber lits in
        st.stats.additions <- st.stats.additions + 1;
        grow_for st lits;
        if rup st lits then begin
          st.stats.rup_steps <- st.stats.rup_steps + 1;
          add_clause st lits;
          go (i + 1) rest
        end
        else if rat st lits then begin
          st.stats.rat_steps <- st.stats.rat_steps + 1;
          add_clause st lits;
          go (i + 1) rest
        end
        else
          Error
            (Bad_step
               { step_index = i; reason = "added clause is neither RUP nor RAT" })
    | Proof.Delete lits :: rest ->
        delete st (renumber lits);
        go (i + 1) rest
  in
  go 0 steps

(* ------------------------------------------------------------------ *)
(* Reference checker: the original list-scanning implementation, kept as
   a differential-testing oracle and as the baseline the bench harness
   measures the watched-literal checker against. Quadratic: every RUP
   query re-propagates over the whole clause list. *)

module Reference = struct
  type rstate = {
    mutable rnvars : int;
    mutable rassignment : int array;
    mutable rclauses : (Lit.t array * bool ref) list;
  }

  let rcreate nvars =
    { rnvars = nvars; rassignment = Array.make (max nvars 1) 0; rclauses = [] }

  let rgrow st v =
    if v >= st.rnvars then begin
      let n = v + 1 in
      let a = Array.make n 0 in
      Array.blit st.rassignment 0 a 0 st.rnvars;
      st.rassignment <- a;
      st.rnvars <- n
    end

  let radd st lits =
    let arr = Array.of_list lits in
    Array.iter (fun l -> rgrow st (Lit.var l)) arr;
    st.rclauses <- (arr, ref true) :: st.rclauses

  let rdelete st lits =
    let target = List.sort Lit.compare lits in
    let rec find = function
      | [] -> false
      | (arr, live) :: rest ->
          if !live && List.sort Lit.compare (Array.to_list arr) = target then begin
            live := false;
            true
          end
          else find rest
    in
    find st.rclauses

  let rvalue st l =
    let a = st.rassignment.(Lit.var l) in
    if Lit.sign l then a else -a

  let propagates_to_conflict st assumptions =
    let trail = ref [] in
    let conflict = ref false in
    let assign l =
      match rvalue st l with
      | 1 -> ()
      | -1 -> conflict := true
      | _ ->
          st.rassignment.(Lit.var l) <- (if Lit.sign l then 1 else -1);
          trail := l :: !trail
    in
    List.iter assign assumptions;
    let progress = ref true in
    while (not !conflict) && !progress do
      progress := false;
      List.iter
        (fun (arr, live) ->
          if !live && not !conflict then begin
            let satisfied = ref false in
            let unassigned = ref [] in
            Array.iter
              (fun l ->
                match rvalue st l with
                | 1 -> satisfied := true
                | 0 -> unassigned := l :: !unassigned
                | _ -> ())
              arr;
            if not !satisfied then
              match !unassigned with
              | [] -> conflict := true
              | [ l ] ->
                  assign l;
                  progress := true
              | _ :: _ :: _ -> ()
          end)
        st.rclauses
    done;
    List.iter (fun l -> st.rassignment.(Lit.var l) <- 0) !trail;
    !conflict

  let rrup st lits =
    let negated = List.map Lit.negate lits in
    let tauto = List.exists (fun l -> List.mem (Lit.negate l) lits) lits in
    tauto || propagates_to_conflict st negated
end

let check_reference cnf proof =
  let open Reference in
  let st = rcreate (Cnf.num_vars cnf) in
  Cnf.iter_clauses' cnf ~f:(fun arena off len ->
      radd st (Array.to_list (Array.sub arena off len)));
  let steps = Proof.steps proof in
  let num_steps = List.length steps in
  let rec go i saw_empty = function
    | [] ->
        if saw_empty then Ok () else Error (No_empty_clause { num_steps })
    | step :: rest -> (
        match step with
        | Proof.Add lits ->
            if not (rrup st lits) then
              Error (Bad_step { step_index = i; reason = "added clause is not RUP" })
            else begin
              radd st lits;
              if lits = [] then Ok () else go (i + 1) saw_empty rest
            end
        | Proof.Delete lits ->
            ignore (rdelete st lits);
            go (i + 1) saw_empty rest)
  in
  go 0 false steps

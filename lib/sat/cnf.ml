(* Clauses live in one flat literal arena: [lits.(offs.(i)) ..
   lits.(offs.(i) + lens.(i) - 1)] are clause [i]'s literals. The arena is
   append-only and packed (offsets are ascending, [nlits] is the fill
   pointer), which lets every consumer iterate without re-materialising
   clause arrays. *)

type t = {
  mutable nvars : int;
  mutable lits : int array; (* packed literal arena, filled to [nlits] *)
  mutable nlits : int;
  mutable offs : int array; (* clause -> start offset, filled to [nclauses] *)
  mutable lens : int array; (* clause -> literal count *)
  mutable nclauses : int;
  mutable scratch : int array; (* clause under construction *)
  mutable slen : int;
}

type view = { arena : int array; off : int; len : int }

let create ?capacity:((lits, clauses) = (256, 64)) () =
  {
    nvars = 0;
    lits = Array.make (max lits 1) 0;
    nlits = 0;
    offs = Array.make (max clauses 1) 0;
    lens = Array.make (max clauses 1) 0;
    nclauses = 0;
    scratch = Array.make 16 0;
    slen = 0;
  }

let fresh_var t =
  let v = t.nvars in
  t.nvars <- v + 1;
  v

let fresh_vars t n = Array.init n (fun _ -> fresh_var t)
let num_vars t = t.nvars
let num_clauses t = t.nclauses
let num_lits t = t.nlits
let ensure_vars t n = if n > t.nvars then t.nvars <- n

let reserve_lits t extra =
  let cap = Array.length t.lits in
  if t.nlits + extra > cap then begin
    let cap' = ref (2 * cap) in
    while t.nlits + extra > !cap' do
      cap' := 2 * !cap'
    done;
    let a = Array.make !cap' 0 in
    Array.blit t.lits 0 a 0 t.nlits;
    t.lits <- a
  end

let reserve_clauses t extra =
  let cap = Array.length t.offs in
  if t.nclauses + extra > cap then begin
    let cap' = ref (2 * cap) in
    while t.nclauses + extra > !cap' do
      cap' := 2 * !cap'
    done;
    let o = Array.make !cap' 0 and l = Array.make !cap' 0 in
    Array.blit t.offs 0 o 0 t.nclauses;
    Array.blit t.lens 0 l 0 t.nclauses;
    t.offs <- o;
    t.lens <- l
  end

(* --- clause builder ---------------------------------------------------- *)

let start_clause t = t.slen <- 0

let push_lit t l =
  if Lit.var l < 0 || Lit.var l >= t.nvars then
    invalid_arg "Cnf.add_clause: unallocated variable";
  if t.slen = Array.length t.scratch then begin
    let a = Array.make (2 * t.slen) 0 in
    Array.blit t.scratch 0 a 0 t.slen;
    t.scratch <- a
  end;
  t.scratch.(t.slen) <- l;
  t.slen <- t.slen + 1

(* Sort the scratch segment in place (insertion sort: clauses are short),
   dedupe, and detect tautologies; complementary literals are adjacent after
   sorting because they share the variable part of the encoding. No
   intermediate list or array is allocated. *)
let commit_clause t =
  let s = t.scratch in
  let n = t.slen in
  for i = 1 to n - 1 do
    let x = s.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && s.(!j) > x do
      s.(!j + 1) <- s.(!j);
      decr j
    done;
    s.(!j + 1) <- x
  done;
  let m = ref 0 in
  let tauto = ref false in
  for i = 0 to n - 1 do
    if !m = 0 || s.(i) <> s.(!m - 1) then begin
      if !m > 0 && s.(i) lxor s.(!m - 1) = 1 then tauto := true;
      s.(!m) <- s.(i);
      incr m
    end
  done;
  t.slen <- 0;
  if not !tauto then begin
    let len = !m in
    reserve_lits t len;
    Array.blit s 0 t.lits t.nlits len;
    reserve_clauses t 1;
    t.offs.(t.nclauses) <- t.nlits;
    t.lens.(t.nclauses) <- len;
    t.nclauses <- t.nclauses + 1;
    t.nlits <- t.nlits + len
  end

let add_clause t lits =
  start_clause t;
  List.iter (fun l -> push_lit t l) lits;
  commit_clause t

(* --- zero-copy access -------------------------------------------------- *)

let lits_array t = t.lits

let clause_off t i =
  if i < 0 || i >= t.nclauses then invalid_arg "Cnf.clause_off";
  t.offs.(i)

let clause_len t i =
  if i < 0 || i >= t.nclauses then invalid_arg "Cnf.clause_len";
  t.lens.(i)

let clause_lit t i k =
  if i < 0 || i >= t.nclauses then invalid_arg "Cnf.clause_lit";
  if k < 0 || k >= t.lens.(i) then invalid_arg "Cnf.clause_lit";
  t.lits.(t.offs.(i) + k)

let get_clause t i =
  if i < 0 || i >= t.nclauses then invalid_arg "Cnf.get_clause";
  { arena = t.lits; off = t.offs.(i); len = t.lens.(i) }

let view_len v = v.len

let view_get v k =
  if k < 0 || k >= v.len then invalid_arg "Cnf.view_get";
  v.arena.(v.off + k)

let view_to_array v = Array.sub v.arena v.off v.len

let view_to_list v =
  let rec go k acc = if k < v.off then acc else go (k - 1) (v.arena.(k) :: acc) in
  go (v.off + v.len - 1) []

let iter_clauses' t ~f =
  for i = 0 to t.nclauses - 1 do
    f t.lits t.offs.(i) t.lens.(i)
  done

let fold_clauses t ~init ~f =
  let acc = ref init in
  for i = 0 to t.nclauses - 1 do
    acc := f !acc t.lits t.offs.(i) t.lens.(i)
  done;
  !acc

(* FNV-1a over the logical content (variable count, then each clause's
   normalised literals with a terminator). Only the packed fill is hashed —
   never spare arena capacity — so structurally identical formulas hash
   identically regardless of growth history. Deterministic across processes (no
   [Hashtbl.hash] seeding), which is what lets a solve server key its
   answer cache on it. *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

(* fold [x] into [h] as 8 bytes, FNV-1a style; inlined, so the loops below
   keep the hash unboxed and allocate nothing *)
let[@inline] mix h x =
  let h = ref h and v = ref (Int64.of_int x) in
  for _ = 0 to 7 do
    let byte = Int64.logand !v 0xffL in
    h := Int64.mul (Int64.logxor !h byte) fnv_prime;
    v := Int64.shift_right_logical !v 8
  done;
  !h

let structural_hash t =
  let h = ref (mix (mix fnv_offset t.nvars) t.nclauses) in
  for i = 0 to t.nclauses - 1 do
    let off = t.offs.(i) and len = t.lens.(i) in
    for k = off to off + len - 1 do
      h := mix !h t.lits.(k)
    done;
    (* terminator: distinguishes [1][2,3] from [1,2][3] *)
    h := mix !h min_int
  done;
  !h

let live_words t = Array.length t.lits + (2 * Array.length t.offs)

let pp_stats fmt t =
  Format.fprintf fmt "v=%d c=%d lits=%d" t.nvars t.nclauses t.nlits

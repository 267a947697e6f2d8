(* Flat clause arena. One growable int array holds every clause as
   [size; flags; activity; lit0; lit1; ...]; a clause reference (cref) is the
   word offset of its header. Propagation walks contiguous memory and the
   whole database is compacted (not lazily swept) when clauses die. *)

type cref = int

let cref_undef = -1
let header_words = 3

(* flags word: bit 0 learnt, bit 1 deleted, bit 2 relocated (during GC the
   activity word of a relocated clause holds the forwarding cref), bits 3+
   the LBD. *)
let flag_learnt = 1
let flag_deleted = 2
let flag_reloced = 4
let lbd_shift = 3

type t = {
  mutable arena : int array;
  mutable fill : int;
  mutable wasted : int;
}

let create capacity =
  { arena = Array.make (max capacity header_words) 0; fill = 0; wasted = 0 }

let fill t = t.fill
let wasted t = t.wasted
let raw t = t.arena

let ensure t extra =
  let cap = Array.length t.arena in
  if t.fill + extra > cap then begin
    let ncap = ref (2 * cap) in
    while t.fill + extra > !ncap do
      ncap := 2 * !ncap
    done;
    let narena = Array.make !ncap 0 in
    Array.blit t.arena 0 narena 0 t.fill;
    t.arena <- narena
  end

(* Clause activity lives in an int word. [Int64.bits_of_float] of a
   non-negative float has its top (sign) bit clear, so the value shifted
   right by one fits OCaml's 63-bit int; shifting back loses only the least
   significant mantissa bit — irrelevant for a reduction heuristic. *)
let bits_of_activity f = Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float f) 1)
let activity_of_bits b = Int64.float_of_bits (Int64.shift_left (Int64.of_int b) 1)

let size t c = t.arena.(c)
let lit t c i = t.arena.(c + header_words + i)

let learnt t c = t.arena.(c + 1) land flag_learnt <> 0
let deleted t c = t.arena.(c + 1) land flag_deleted <> 0

let set_deleted t c =
  if not (deleted t c) then begin
    t.arena.(c + 1) <- t.arena.(c + 1) lor flag_deleted;
    t.wasted <- t.wasted + header_words + size t c
  end

let lbd t c = t.arena.(c + 1) lsr lbd_shift

let set_lbd t c lbd =
  t.arena.(c + 1) <- (lbd lsl lbd_shift) lor (t.arena.(c + 1) land (flag_learnt lor flag_deleted lor flag_reloced))

let activity t c = activity_of_bits t.arena.(c + 2)
let set_activity t c a = t.arena.(c + 2) <- bits_of_activity a

let alloc ?(learnt = false) t src off n =
  ensure t (header_words + n);
  let c = t.fill in
  t.arena.(c) <- n;
  t.arena.(c + 1) <- (if learnt then flag_learnt else 0);
  t.arena.(c + 2) <- bits_of_activity 0.;
  Array.blit src off t.arena (c + header_words) n;
  t.fill <- c + header_words + n;
  c

let to_list t c =
  let rec go i acc = if i < 0 then acc else go (i - 1) (lit t c i :: acc) in
  go (size t c - 1) []

(* GC support: copy a live clause into [dst] and leave a forwarding pointer
   behind (in the activity word) so shared references relocate to the same
   copy. The caller must not relocate deleted clauses. *)
let reloc ~src ~dst c =
  if src.arena.(c + 1) land flag_reloced <> 0 then src.arena.(c + 2)
  else begin
    let n = src.arena.(c) in
    ensure dst (header_words + n);
    let nc = dst.fill in
    Array.blit src.arena c dst.arena nc (header_words + n);
    dst.fill <- nc + header_words + n;
    src.arena.(c + 1) <- src.arena.(c + 1) lor flag_reloced;
    src.arena.(c + 2) <- nc;
    nc
  end

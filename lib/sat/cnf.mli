(** CNF formulas on a packed literal arena.

    This is the builder the encoders write into and the store every
    downstream consumer (solver, DPLL, DIMACS writer, DRAT
    checker) reads from. Clauses live in one flat [int array] of
    literals with an offsets index — not as boxed per-clause arrays — so
    whole-formula traversal is cache-friendly and allocation-free.

    Light normalisation happens on insertion: literals are sorted, duplicate
    literals are removed, and tautological clauses (containing [l] and
    [not l]) are dropped.

    {b Zero-copy invariants.} {!lits_array}, {!get_clause} views, and the
    arrays handed to {!iter_clauses'} / {!fold_clauses} callbacks alias the
    formula's internal storage. They are valid until the next clause is
    added (arena growth may replace the backing array); do not mutate them,
    and re-fetch after any addition. *)

type t

val create : ?capacity:int * int -> unit -> t
(** [capacity = (literals, clauses)] sizes the literal arena in words and
    the clause index in entries (default [(256, 64)]). Both double as
    needed, so the hint is never a limit; a builder that knows its final
    size passes it and never regrows. *)

val fresh_var : t -> Lit.var
(** Allocates the next unused variable. *)

val fresh_vars : t -> int -> Lit.var array
(** [fresh_vars t n] allocates [n] consecutive fresh variables. *)

val num_vars : t -> int
val num_clauses : t -> int

val num_lits : t -> int
(** Total literal count over all clauses (the arena fill). *)

val ensure_vars : t -> int -> unit
(** [ensure_vars t n] makes sure variables [0 .. n-1] exist. *)

val add_clause : t -> Lit.t list -> unit
(** Adds a clause. Duplicate literals are removed; tautologies are ignored.
    Adding the empty clause is allowed and makes the formula trivially
    unsatisfiable. Raises [Invalid_argument] if a literal mentions a variable
    that was never allocated. *)

(** {2 Clause builder}

    The allocation-free emission path: push literals one by one into a
    reusable scratch buffer, then commit. [add_clause] is
    [start_clause] + [push_lit]* + [commit_clause]. *)

val start_clause : t -> unit
(** Begins a new clause, discarding any uncommitted literals. *)

val push_lit : t -> Lit.t -> unit
(** Appends a literal to the clause under construction. Raises
    [Invalid_argument] on an unallocated variable. *)

val commit_clause : t -> unit
(** Normalises the pending literals in place (sort, dedupe, tautology
    check) and appends the clause to the arena; tautologies are dropped. *)

(** {2 Zero-copy access} *)

type view = { arena : int array; off : int; len : int }
(** A window into the arena: clause literals are
    [arena.(off) .. arena.(off + len - 1)]. Valid until the next clause
    addition. *)

val get_clause : t -> int -> view
(** [get_clause t i] is clause [i] (insertion order), without copying. *)

val view_len : view -> int
val view_get : view -> int -> Lit.t
val view_to_array : view -> Lit.t array
(** A fresh copy of the viewed literals. *)

val view_to_list : view -> Lit.t list

val clause_off : t -> int -> int
(** Start offset of clause [i] in {!lits_array}. *)

val clause_len : t -> int -> int
val clause_lit : t -> int -> int -> Lit.t
(** [clause_lit t i k] is literal [k] of clause [i]. *)

val lits_array : t -> int array
(** The backing literal arena. Only indices covered by some clause are
    meaningful; valid until the next clause addition. *)

val iter_clauses' : t -> f:(int array -> int -> int -> unit) -> unit
(** [iter_clauses' t ~f] calls [f arena off len] for each clause in
    insertion order. No per-clause allocation. *)

val fold_clauses : t -> init:'a -> f:('a -> int array -> int -> int -> 'a) -> 'a
(** [fold_clauses t ~init ~f] folds [f acc arena off len] over clauses in
    insertion order. *)

val structural_hash : t -> int64
(** A 64-bit FNV-1a hash of the formula's logical content: the variable
    count and every clause's normalised literals, in insertion order.
    Deterministic across processes and runs (no randomised seeding), and a
    function of content only — spare arena capacity and growth history do
    not affect it. Two formulas built by the
    same deterministic encoder from the same input always collide; distinct
    formulas collide with probability ~2^-64. The solve server keys its
    answer cache on this hash (× strategy × budget). *)

val live_words : t -> int
(** Words currently held by the literal arena and the clause index
    (capacity, not fill): [literals + 2 * clauses] for a formula built at
    its {!create} capacity without regrowing. The clause builder's scratch
    buffer is not counted. *)

val pp_stats : Format.formatter -> t -> unit
(** One-line "v=… c=… lits=…" summary. *)

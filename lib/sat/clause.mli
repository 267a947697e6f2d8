(** Flat clause arena for the CDCL solver.

    All clauses — problem and learnt — live in one growable int array as
    [size; flags; activity; lit0; lit1; ...]. A clause reference ({!cref})
    is the word offset of its header, so the clause database is a value type
    for its consumers: watch lists and reason slots store plain ints, and
    propagation walks contiguous memory instead of chasing boxed records.

    Deletion marks a clause and accounts its words as {!wasted}; the solver
    compacts the database with {!reloc} (copying live clauses into a fresh
    arena and leaving forwarding pointers) instead of letting lazily-deleted
    garbage linger in watch lists.

    Clause activity is stored in an int header word via
    [Int64.bits_of_float] shifted right by one — non-negative floats keep
    their ordering under this encoding and lose only the least significant
    mantissa bit, which is irrelevant for a reduction heuristic. *)

type cref = int
(** Word offset of a clause header in the arena. *)

val cref_undef : cref
(** Sentinel (-1) for "no clause", used in reason slots. *)

val header_words : int
(** Words before the first literal of a clause (3: size, flags, activity). *)

type t
(** The arena. *)

val create : int -> t
(** [create capacity] is an empty arena of [capacity] words; it doubles
    when an {!alloc} overflows it. *)

val fill : t -> int
(** Words in use (including deleted clauses not yet compacted). *)

val wasted : t -> int
(** Words occupied by deleted clauses; reclaimed by compaction. *)

val raw : t -> int array
(** The backing array, for bounds-check-conscious hot loops ([propagate]).
    Layout per clause at cref [c]: [raw.(c)] = size, [raw.(c+1)] = flags,
    [raw.(c+2)] = activity bits, literals from [c + header_words]. The array
    is replaced whenever the arena grows or is compacted — never hold it
    across an {!alloc} or {!reloc}. *)

val alloc : ?learnt:bool -> t -> Lit.t array -> int -> int -> cref
(** [alloc t src off len] appends the clause [src.(off) .. src.(off + len - 1)]
    (activity 0, LBD 0), copying it straight from [src]: a caller holding a
    whole clause array passes [(arr, 0, Array.length arr)]. *)

val size : t -> cref -> int
val lit : t -> cref -> int -> Lit.t
val learnt : t -> cref -> bool
val deleted : t -> cref -> bool
val set_deleted : t -> cref -> unit
(** Marks the clause deleted and accounts its words as wasted. Idempotent.
    The caller is responsible for detaching it from watch lists (or
    rebuilding them) before propagation runs again. *)

val lbd : t -> cref -> int
val set_lbd : t -> cref -> int -> unit
val activity : t -> cref -> float
val set_activity : t -> cref -> float -> unit
val to_list : t -> cref -> Lit.t list

val reloc : src:t -> dst:t -> cref -> cref
(** [reloc ~src ~dst c] copies clause [c] into [dst] (once: subsequent calls
    return the same forwarding target) and returns its new cref. Only live
    clauses may be relocated; compaction drops deleted ones by never
    relocating them. *)

(** Watch lists of the CDCL solver and the DRAT checker: their type and
    their limits.

    Each literal has one list of watchers. A watcher is one int: a blocker
    literal above bit 32 and a clause reference (an arena offset in
    {!Solver}, a clause id in {!Drat_check}) below it. That is half the
    memory of a (blocker, reference) pair. {!Solver} and {!Drat_check}
    each pack, push and remove watchers with local functions, so that
    their propagation loops call into no other module. *)

type t = { mutable data : int array; mutable size : int }
(** [data.(0) .. data.(size - 1)] are the watchers, in insertion order
    except where a removal moved the last one into a hole. *)

val create : unit -> t

val max_lits : int
(** Literals below this fit above bit 32 of an int: 2^31, so 2^30
    variables. *)

val max_refs : int
(** Clause references below this fit below bit 32: 2^32. *)

val check : string -> lits:int -> refs:int -> unit
(** [check who ~lits ~refs] raises [Invalid_argument] naming [who] when
    [lits] literals or [refs] clause references do not fit a watcher.
    Callers run it before they allocate anything of that size. *)

(** DIMACS CNF reader and writer.

    The standard [p cnf <vars> <clauses>] format: comment lines start with
    ["c"], clauses are 0-terminated integer lists and may span several
    lines. *)

exception Parse_error of string
(** Raised with a human-readable message (including a line number) on
    malformed input; malformed input of any kind raises this and nothing
    else. *)

val max_vars : int
(** The largest variable count a header may declare (2{^22}, far above
    any instance this tool builds). The header is never used to size the
    clause store, but its variable count becomes the formula's, and a
    solver allocates per variable; a larger declaration is a
    {!Parse_error}. *)

val parse_string : string -> Cnf.t
val parse_file : string -> Cnf.t

val to_buffer : Buffer.t -> ?comments:string list -> Cnf.t -> unit
(** Appends the formula (preceded by the given comment lines) to a buffer,
    iterating the clause arena directly — no per-clause copies. *)

val output : out_channel -> ?comments:string list -> Cnf.t -> unit
(** Writes the formula, preceded by the given comment lines. *)

val to_string : ?comments:string list -> Cnf.t -> string
val write_file : string -> ?comments:string list -> Cnf.t -> unit

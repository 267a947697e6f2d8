(** DRAT proof traces.

    When enabled, the CDCL solver records every learnt clause (an addition
    step) and every clause-database deletion, ending with the empty clause on
    an UNSAT answer. The trace can be written in the standard textual DRAT
    format consumed by external checkers, and this module also provides a
    lightweight internal check that the recorded additions end with the empty
    clause. *)

type step = Add of Lit.t list | Delete of Lit.t list

type t

val create : unit -> t
val add : t -> Lit.t list -> unit

val delete : t -> Lit.t list -> unit
val steps : t -> step list
(** In recording order. *)

val num_steps : t -> int

val ends_with_empty : t -> bool
(** [true] iff the last addition step is the empty clause — the shape a DRAT
    refutation must have. *)

val output : out_channel -> t -> unit
(** Textual DRAT: one step per line, deletions prefixed with ["d"],
    0-terminated DIMACS literals. *)

exception Parse_error of string

val parse : in_channel -> t
(** Parse textual DRAT as written by {!output}: 0-terminated DIMACS
    literals, ["d"]-prefixed deletions, ["c"] comment lines and blank lines
    ignored. Raises {!Parse_error} on malformed input, and on a literal
    whose variable exceeds {!Dimacs_cnf.max_vars}. *)

val parse_file : string -> t
(** [parse_file path] — {!parse} applied to the file at [path]. *)

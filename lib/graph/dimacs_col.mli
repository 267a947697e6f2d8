(** DIMACS graph ("col") format — the paper's intermediate representation.

    The paper's tool flow first emits the FPGA conflict graph in this format
    ([p edge <n> <m>] header, [e <u> <v>] edge lines, 1-based vertices) so
    that any graph-colouring-to-SAT tool can pick it up. *)

exception Parse_error of string
(** Raised with a human-readable message (including a line number) on
    malformed input; malformed input of any kind raises this and nothing
    else. *)

val max_vertices : int
(** The largest vertex count a header may declare (2{^22}). The count sizes
    the graph, since isolated vertices are declared nowhere else, so a
    larger declaration is a {!Parse_error} rather than an allocation. *)

val parse_string : string -> Graph.t
val parse_file : string -> Graph.t
val to_string : ?comments:string list -> Graph.t -> string
val write_file : string -> ?comments:string list -> Graph.t -> unit

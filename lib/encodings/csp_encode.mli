(** Translation of a colouring CSP to CNF under a chosen encoding.

    Every CSP variable (graph vertex) gets its own block of Boolean
    variables shaped by the encoding's {!Layout.t}; conflict clauses forbid
    adjacent vertices from selecting the same value (the negated conjunction
    of the two indexing patterns, Sect. 4's worked example); optional
    symmetry-breaking clauses forbid specific (vertex, colour) pairs. *)

type t = private {
  encoding : Encoding.t;
  csp : Csp.t;
  layout : Layout.t;  (** Shared by all CSP variables (same domain size). *)
  cnf : Fpgasat_sat.Cnf.t;
  symmetry : Symmetry.heuristic option;
}

val encode : ?symmetry:Symmetry.heuristic -> Encoding.t -> Csp.t -> t
(** Builds the full CNF: per-variable side clauses, conflict clauses for
    every edge and every common value, and symmetry clauses when requested.
    Conflict and symmetry clauses expand the indexing patterns verbatim
    (the paper's flat emission). *)

val boolean_var : t -> int -> int -> Fpgasat_sat.Lit.var
(** [boolean_var t v s] is the Boolean variable behind slot [s] of CSP
    variable [v]. *)

val pattern_lits : t -> int -> int -> Fpgasat_sat.Lit.t list
(** [pattern_lits t v value] is value [value]'s indexing pattern for CSP
    variable [v], as concrete literals. *)

exception No_selected_value of int
(** Raised by {!decode} when a model selects no value for some CSP variable
    — impossible for models of the emitted CNF, indicating a corrupted
    model. *)

val decode : t -> bool array -> Fpgasat_graph.Coloring.t
(** Extracts a colouring from a SAT model. For non-exclusive (multivalued)
    encodings any one selected value is taken, as the paper prescribes. *)

val decoder : t -> bool array -> Fpgasat_graph.Coloring.t
(** [decoder t] is [decode t] as a closure that keeps only the layout and
    the variable count: a caller may hold it after dropping the CNF. *)

val selected_values_of : t -> bool array -> int -> int list
(** All domain values the model selects for a CSP variable (useful for
    inspecting multivalued solutions). *)

(** Closed-form size predictions for encoded CSPs.

    For every encoding this module predicts, without building the CNF, how
    many Boolean variables, side clauses and conflict clauses (with their
    literal counts) the translation of a colouring CSP will produce. The
    predictions match the encoder {e exactly} (validated against
    {!Csp_encode.encode} in the test suite, which pins down the encoder's
    behaviour) and power the encoding explorer's size tables without
    paying for the construction. *)

type t = {
  vars_per_csp_var : int;  (** Slot variables: the layout's [num_slots]. *)
  side_clauses_per_csp_var : int;
  side_literals_per_csp_var : int;
  conflict_clauses_per_edge : int;  (** Always the domain size [k]. *)
  conflict_literals_per_edge : int;
      (** Sum over values of twice the pattern length. *)
}

val of_layout : Layout.t -> t
val predict : Encoding.t -> k:int -> t

val total_vars : t -> num_vertices:int -> int
val total_clauses : t -> num_vertices:int -> num_edges:int -> int
val total_literals : t -> num_vertices:int -> num_edges:int -> int
(** Totals for a CSP with the given conflict-graph shape (excluding
    symmetry-breaking clauses). *)

val pp : Format.formatter -> t -> unit

(** Solution strategies: an encoding, an optional symmetry-breaking
    heuristic, and a solver preset.

    This is the unit the paper's portfolios are built from ("each a
    combination of a SAT encoding and a symmetry-breaking heuristic"). *)

type t = {
  encoding : Fpgasat_encodings.Encoding.t;
  symmetry : Fpgasat_encodings.Symmetry.heuristic option;
  solver : Fpgasat_sat.Solver.config;
  solver_name : string;
}

val make :
  ?symmetry:Fpgasat_encodings.Symmetry.heuristic ->
  ?solver:[ `Siege_like | `Minisat_like ] ->
  Fpgasat_encodings.Encoding.t ->
  t
(** Default solver: [`Siege_like] — the paper found siege_v4 at least 2×
    faster on the (hard) unsatisfiable instances. *)

val name : t -> string
(** E.g. ["ITE-linear-2+muldirect/s1@siege"]. *)

val of_name : string -> (t, string) result
(** Parses ["<encoding>[/<sym>][@<solver>]"] where [<encoding>] is a
    registry name ({!Fpgasat_encodings.Registry.of_name}), [<sym>] is
    [b1], [s1] or [none] and [<solver>] is [siege] or [minisat]. *)

val best_single : t
(** The paper's winner: ITE-linear-2+muldirect with s1. *)

val paper_portfolio_2 : t list
(** The paper's 2-member portfolio: ITE-linear-2+muldirect/s1 and
    muldirect-3+muldirect/s1. *)

val paper_portfolio_3 : t list
(** The above plus ITE-linear-2+direct/s1. *)

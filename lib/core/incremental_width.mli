(** Minimal channel width by incremental SAT.

    Instead of one fresh CNF per width (as {!Binary_search} does), the
    colouring problem is encoded {e once} at the DSATUR upper bound with one
    fresh {e selector} variable per colour and clauses
    [not s_c \/ not pattern_v(c)]: assuming [s_c] switches colour [c] off for
    every vertex. One persistent solver then answers a width-[w] query under
    assumptions [{s_c | c >= w}], keeping its learnt clauses between
    queries. Works with every encoding, because switching a colour off is a
    clause over its indexing pattern, not a single literal.

    This is an engineering extension beyond the paper (which re-translated
    per configuration); the bench compares the two searches. *)

(** {1 The width ladder}

    The encode-once-query-many substrate, exposed on its own so callers
    with their own query schedule can share it: {!minimal_colors} walks it
    downward, and the solve server keeps one ladder {e warm} per
    (benchmark × strategy) session, answering repeated width queries
    without re-encoding. *)

type ladder
(** An encoded colouring problem with its persistent solver and colour
    selectors. Not thread-safe: callers serialise access (the server holds
    one mutex per session). *)

val prepare : ?strategy:Strategy.t -> Fpgasat_graph.Graph.t -> ladder
(** Encodes the graph once at the DSATUR upper bound (cold cost); every
    subsequent {!query} is an assumption-only call on the shared solver. *)

val query :
  ?budget:Fpgasat_sat.Solver.budget ->
  ladder ->
  width:int ->
  Flow.answer * Fpgasat_sat.Solver.result
(** Is the graph colourable with [width] colours? The budget applies to
    this query alone; learnt clauses persist across queries. Widths above
    the ladder's upper bound are answered at the upper bound (equivalent:
    a colouring within fewer colours fits a fortiori). Models are read
    through {!Flow.decode}. The solver's result comes alongside: its model
    satisfies {!cnf}, so [`Solved (cnf ladder, result)] lets
    {!Flow.finish} certify a colouring; an [`Uncolorable] answer holds only
    under the selector assumptions and has no standalone refutation.
    Raises [Invalid_argument] when [width < 1] and {!Flow.Decode_mismatch}
    if a model fails to decode into a proper colouring. *)

val bounds : ladder -> int * int
(** [(lower, upper)]: the clique lower bound and DSATUR upper bound the
    ladder was built with. *)

val queries : ladder -> int
(** Queries answered so far. *)

val stats : ladder -> Fpgasat_sat.Stats.t
(** The shared solver's cumulative statistics — snapshot around a {!query}
    to attribute per-query work. *)

val cnf_hash : ladder -> int64
(** {!Fpgasat_sat.Cnf.structural_hash} of the encoded problem CNF (before
    selector augmentation) — the content part of the server's answer-cache
    key. *)

val cnf_size : ladder -> int * int
(** [(vars, clauses)] of the encoded problem CNF, for run records. *)

val cnf : ladder -> Fpgasat_sat.Cnf.t
(** The selector-augmented CNF the ladder's solver was loaded from — the
    encoded problem plus the selector clauses — against which its models
    are checked. Rebuilt on each call, identically, since the ladder does
    not keep it. *)

(** {1 Minimal-width search} *)

val walk_down :
  ?budget:Fpgasat_sat.Solver.budget ->
  ladder ->
  (int * Fpgasat_graph.Coloring.t, string) result
(** The minimal-width walk both {!minimal_colors} and the solve server's
    warm [min_width] run: query the ladder from its upper bound downward,
    skipping to just below the colours each model actually used, until a
    width is uncolourable or the clique lower bound is passed. Returns the
    minimal width with a proper colouring in that many colours. The budget
    applies per query; raises {!Flow.Decode_mismatch} as {!query} does. *)

type search_result = {
  w_min : int;
  coloring : Fpgasat_graph.Coloring.t;  (** A proper [w_min]-colouring. *)
  queries : int;  (** SAT queries answered by the shared solver. *)
  stats : Fpgasat_sat.Stats.t;  (** Cumulative solver statistics. *)
}

val minimal_colors :
  ?strategy:Strategy.t ->
  ?budget:Fpgasat_sat.Solver.budget ->
  Fpgasat_graph.Graph.t ->
  (search_result, string) result
(** Minimal number of colours of a conflict graph (= minimal channel width
    of the routing it came from): {!walk_down} on a fresh {!ladder}. The
    budget applies per query. *)

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
(** A colouring problem's {!Width_bounds} and, when they leave a gap, a
    persistent solver over its encoding with colour selectors. When the
    maximum clique meets the DSATUR bound the bounds answer every width
    and the ladder holds no solver. It never holds the encoded CNF, only
    its hash and size. Not thread-safe: callers serialise access (the
    server holds one mutex per session). *)

val prepare :
  ?strategy:Strategy.t -> ?bounds:Width_bounds.t -> Fpgasat_graph.Graph.t -> ladder
(** Encodes the graph once at the DSATUR upper bound of its
    {!Width_bounds} (computed here unless [bounds], which must be the
    graph's, is given) and takes the CNF's hash and size. When the bounds
    meet, that is all. Otherwise the selector clauses are appended to that
    CNF in place and a solver loads it (cold cost); every subsequent
    {!query} is an assumption-only call on the shared solver. *)

val query :
  ?budget:Fpgasat_sat.Solver.budget -> ladder -> width:int -> Flow.answer
(** Is the graph colourable with [width] colours? On a ladder without a
    solver the clique refutes every width below the bounds and the DSATUR
    colouring answers every other, with no query. Otherwise the budget
    applies to this query alone and learnt clauses persist across queries.
    Widths above the ladder's upper bound are answered at the upper bound
    (equivalent: a colouring within fewer colours fits a fortiori). Models
    are read through {!Flow.decode}. An [`Uncolorable] answer from the
    solver holds only under the selector assumptions and has no standalone
    refutation. Raises [Invalid_argument] when [width < 1] and
    {!Flow.Decode_mismatch} if a model fails to decode into a proper
    colouring. *)

val bounds : ladder -> Width_bounds.t
(** The bracket the ladder was built with: its maximum clique, its DSATUR
    colouring and their sizes. *)

val has_solver : ladder -> bool
(** [false] exactly when the maximum clique meets the DSATUR bound. *)

val queries : ladder -> int
(** SAT queries answered so far. *)

val stats : ladder -> Fpgasat_sat.Stats.t
(** The shared solver's cumulative statistics — snapshot around a {!query}
    to attribute per-query work. All zero on a ladder without a solver. *)

val cnf_hash : ladder -> int64
(** {!Fpgasat_sat.Cnf.structural_hash} of the encoded problem CNF (before
    selector augmentation) — the content part of the server's answer-cache
    key. *)

val cnf_size : ladder -> int * int
(** [(vars, clauses)] of the encoded problem CNF, for run records. *)

(** {1 Minimal-width search} *)

val walk_down :
  ?budget:Fpgasat_sat.Solver.budget ->
  ladder ->
  (int * Fpgasat_graph.Coloring.t, string) result
(** The minimal-width walk both {!minimal_colors} and the solve server's
    warm [min_width] run: query the ladder from its upper bound downward,
    skipping to just below the colours each model actually used, until a
    width is uncolourable or the next width would be below the maximum
    clique, which refutes it without a query. When the clique is as large
    as the DSATUR colouring's colours, the bounds alone prove that width
    minimal: the walk returns the DSATUR colouring and makes no query.
    Returns the minimal width with a proper colouring in that many
    colours. The budget applies per query; raises {!Flow.Decode_mismatch}
    as {!query} does. *)

type search_result = {
  w_min : int;
  coloring : Fpgasat_graph.Coloring.t;  (** A proper [w_min]-colouring. *)
  queries : int;
      (** SAT queries answered by the shared solver; 0 when the bounds
          meet. *)
  stats : Fpgasat_sat.Stats.t;
      (** Cumulative solver statistics; all zero when the bounds meet. *)
}

val minimal_colors :
  ?strategy:Strategy.t ->
  ?budget:Fpgasat_sat.Solver.budget ->
  Fpgasat_graph.Graph.t ->
  (search_result, string) result
(** Minimal number of colours of a conflict graph (= minimal channel width
    of the routing it came from): {!walk_down} on a fresh {!ladder}. The
    budget applies per query. *)

(** A warm solver session: one benchmark × strategy, encoded once.

    A session wraps a {!Fpgasat_core.Incremental_width.ladder} built from
    the benchmark's conflict graph: the first request pays the encode
    (plus selector construction and solver creation); every later width
    query is an assumption-only call on the persistent solver, reusing its
    learnt clauses. Sessions are the reason repeated queries through the
    server beat cold [fpgasat route] invocations.

    A session serialises its own solver access with an internal mutex, so
    any number of server workers may hold the same session; ladder queries
    on one session run one at a time (queries on different sessions run in
    parallel, and answers from the stored bounds take no lock). *)

type t

val create :
  benchmark:string ->
  Fpgasat_core.Strategy.t ->
  Fpgasat_fpga.Benchmarks.instance ->
  t
(** The cold part: builds the ladder (encode at the DSATUR upper bound),
    whose {!Fpgasat_core.Width_bounds} supply the maximum clique that
    answers [width < lower] and the greedy colouring that answers
    [width ≥ upper], both instantly. *)

val benchmark : t -> string
val strategy : t -> Fpgasat_core.Strategy.t
val route : t -> Fpgasat_fpga.Global_route.t
(** For the cold path of a certified request in the gap, at or above the
    clique bound and below {!fewest_colors}, which bypasses the ladder. *)

val bounds : t -> int * int
(** [(lower, upper)]: the size of a maximum clique (at least 1) and the
    DSATUR upper bound. Every width below [lower] is unroutable, and every
    width from [upper] up routable. *)

val prepare_seconds : t -> float
(** Wall cost of {!create} — the amortised cold cost warm queries skip. *)

val cache_key :
  t -> width:int -> budget_signature:string -> certify:bool -> string
(** The answer-cache identity of a width query on this session:
    [cnf-structural-hash|strategy|width|budget|certify]. Content-derived —
    two sessions over identical CNF under the same strategy share
    entries. *)

val fewest_colors : t -> int
(** The fewest colours of any colouring this session has seen. It starts
    at the DSATUR upper bound and is lowered by every {!min_width} result
    and every routable {!route_warm} answer; it never rises. A width at or
    above it is routable, so a certified request there can be served by
    {!route_warm}, and so can one below the clique bound, which the clique
    refutes. Between the two, only a cold solve can supply a standalone
    refutation. *)

val route_warm :
  ?budget:Fpgasat_sat.Solver.budget ->
  ?telemetry:bool ->
  ?certify:bool ->
  t ->
  width:int ->
  Fpgasat_core.Flow.run
(** Answers a width query on the warm ladder and assembles the
    {!Fpgasat_core.Flow.run} through {!Fpgasat_core.Flow.finish}, the same
    path cold answers take. Its solver statistics are this query's
    {e delta} (cumulative counters snapshotted around the call);
    [timings.to_graph] and [timings.to_cnf] are 0 — the session already
    paid them — and telemetry, when asked for, covers the query alone.
    Two bands are answered from the stored bounds without touching the
    solver or waiting for its lock, with zero solver statistics and zero
    timings: widths below the clique bound are unroutable, and widths at
    or above the DSATUR upper bound are routed by the stored greedy
    colouring.

    With [certify] (default [false]) a routable answer is certified by the
    same checks a cold one gets: {!Fpgasat_sat.Solver.check_model} of the
    ladder's model against its selector-augmented CNF plus
    {!Fpgasat_fpga.Detailed_route.verify}, or [verify] alone for the
    stored colouring, which has no model. An answer below the clique bound
    is certified by its clique, checked against the global route by
    {!Fpgasat_fpga.Detailed_route.clique_refutes}. A ladder's unroutable
    answer holds only under selector assumptions, so it is never certified
    ([certified = Some false]); callers send certified widths in the gap,
    from the clique bound to below {!fewest_colors}, to the cold pipeline
    instead. Raises [Invalid_argument] when [width < 1], and
    {!Fpgasat_core.Flow.Decode_mismatch} on a decode failure (isolated by
    the server's worker pool). *)

val min_width :
  ?budget:Fpgasat_sat.Solver.budget -> t -> (int, string) result
(** Minimal width by {!Fpgasat_core.Incremental_width.walk_down} on the
    warm ladder — the walk {!Fpgasat_core.Incremental_width.minimal_colors}
    runs, without re-encoding, and without a query below the clique bound
    — lowering {!fewest_colors} to the result. The budget applies per
    query. *)

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
    parallel, and answers from the stored clique and colouring take no
    lock). *)

type t

val create :
  benchmark:string ->
  Fpgasat_core.Strategy.t ->
  Fpgasat_fpga.Benchmarks.instance ->
  t
(** The cold part: builds the ladder (encode at the DSATUR upper bound),
    whose {!Fpgasat_core.Width_bounds} supply the maximum clique that
    answers [width < lower] and the DSATUR colouring that starts the
    session's best colouring (see {!fewest_colors}), both instantly. *)

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
(** The fewest colours of any colouring this session has seen. The
    session keeps that colouring too: at first the DSATUR colouring, then
    the {!min_width} result or a routable ladder answer of {!route_warm},
    whichever used fewest colours. It never rises. Every width at or above
    it is routable, and {!route_warm} answers and certifies it from the
    stored colouring; every width below the clique bound is unroutable,
    refuted by the clique. Between the two, only a cold solve can supply a
    standalone refutation. *)

val route_warm :
  ?budget:Fpgasat_sat.Solver.budget ->
  ?telemetry:bool ->
  ?certify:bool ->
  t ->
  width:int ->
  Fpgasat_core.Flow.run
(** Answers a width query and assembles the {!Fpgasat_core.Flow.run}
    through {!Fpgasat_core.Flow.finish}, the same path cold answers take.
    [timings.to_graph] and [timings.to_cnf] are 0 — the session already
    paid them. A width falls in one of three bands:
    - below the clique bound, unroutable, from the stored clique;
    - at or above {!fewest_colors}, routable, from the stored best
      colouring;
    - in between, the ladder band: a query on the warm ladder, run under
      the session's lock.

    The first two take no lock and run no solver, with zero solver
    statistics and zero timings. A ladder answer's solver statistics are
    this query's {e delta} (cumulative counters snapshotted around the
    call), telemetry, when asked for, covers the query alone, and a
    routable answer lowers {!fewest_colors} to the colours it used.

    With [certify] (default [false]) the answer is certified from the
    stored certificates: the best colouring by
    {!Fpgasat_fpga.Detailed_route.verify} alone (it has no model), the
    clique by {!Fpgasat_fpga.Detailed_route.clique_refutes} against the
    global route. A ladder answer is not certified: its refutations hold
    only under selector assumptions, so callers send certified widths in
    the ladder band to the cold pipeline. Since {!fewest_colors} only
    falls, a width seen outside that band stays outside it. Raises
    [Invalid_argument] when [width < 1] or when [certify] is asked in the
    ladder band, and {!Fpgasat_core.Flow.Decode_mismatch} on a decode
    failure (isolated by the server's worker pool). *)

val min_width :
  ?budget:Fpgasat_sat.Solver.budget -> t -> (int, string) result
(** Minimal width. When {!fewest_colors} has come down to the clique
    bound, that is the answer, returned at once. Otherwise it is
    {!Fpgasat_core.Incremental_width.walk_down} on the warm ladder — the
    walk {!Fpgasat_core.Incremental_width.minimal_colors} runs, without
    re-encoding, and without a query below the clique bound — whose
    colouring becomes the session's best. The budget applies per
    query. *)

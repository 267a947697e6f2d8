(** A warm solver session: one benchmark × strategy, encoded once.

    A session wraps a {!Fpgasat_core.Incremental_width.ladder} built from
    the benchmark's conflict graph: the first request pays the encode
    (plus selector construction and solver creation); every later width
    query is an assumption-only call on the persistent solver, reusing its
    learnt clauses. Sessions are the reason repeated queries through the
    server beat cold [fpgasat route] invocations.

    A session serialises its own solver access with an internal mutex, so
    any number of server workers may hold the same session; queries on one
    session run one at a time (queries on different sessions run in
    parallel). *)

type t

val create :
  benchmark:string ->
  Fpgasat_core.Strategy.t ->
  Fpgasat_fpga.Benchmarks.instance ->
  t
(** The cold part: builds the ladder (encode at the DSATUR upper bound)
    and the greedy colouring used to answer [width ≥ upper] instantly. *)

val benchmark : t -> string
val strategy : t -> Fpgasat_core.Strategy.t
val route : t -> Fpgasat_fpga.Global_route.t
(** For the cold (certify) path, which bypasses the ladder. *)

val bounds : t -> int * int
(** Clique lower bound and DSATUR upper bound. *)

val prepare_seconds : t -> float
(** Wall cost of {!create} — the amortised cold cost warm queries skip. *)

val cache_key :
  t -> width:int -> budget_signature:string -> certify:bool -> string
(** The answer-cache identity of a width query on this session:
    [cnf-structural-hash|strategy|width|budget|certify]. Content-derived —
    two sessions over identical CNF under the same strategy share
    entries. *)

val route_warm :
  ?budget:Fpgasat_sat.Solver.budget ->
  ?telemetry:bool ->
  t ->
  width:int ->
  Fpgasat_core.Flow.run
(** Answers a width query on the warm ladder and assembles the
    {!Fpgasat_core.Flow.run} through {!Fpgasat_core.Flow.finish}, the same
    path cold answers take. Its solver statistics are this query's
    {e delta} (cumulative counters snapshotted around the call);
    [timings.to_graph] and [timings.to_cnf] are 0 — the session already
    paid them — and telemetry, when asked for, covers the query alone.
    Widths at or above the DSATUR upper bound are answered from the stored
    greedy colouring without touching the solver. Warm answers are never
    certified. Raises {!Fpgasat_core.Flow.Decode_mismatch} on a decode
    failure (isolated by the server's worker pool). *)

val min_width :
  ?budget:Fpgasat_sat.Solver.budget -> t -> (int, string) result
(** Minimal width by {!Fpgasat_core.Incremental_width.walk_down} on the
    warm ladder — the walk {!Fpgasat_core.Incremental_width.minimal_colors}
    runs, without re-encoding. The budget applies per query. *)

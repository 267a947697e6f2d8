(** A CDCL SAT solver.

    MiniSat-class architecture: two watched literals per clause, EVSIDS
    variable activities with a heap-ordered decision queue, first-UIP conflict
    analysis with basic clause minimisation, phase saving, scheduled restarts
    and activity-driven learnt-clause database reduction.

    The propagation core is cache-conscious: all clauses live in one flat
    int arena ({!Clause}) referenced by integer crefs, watch lists are packed
    [(blocker, cref)] int pairs so a visit whose blocker literal is already
    satisfied never touches clause memory, the assignment holds one value
    per literal so reading a literal's value is one load with no branch on
    its sign, and database reduction compacts the arena (relocating live
    clauses and rebuilding watches) instead of leaving lazily-deleted
    garbage pinned by watch lists. Between restarts
    the solver runs bounded inprocessing — self-subsumption and clause
    vivification under an explicit work budget (see {!config}) — emitting
    DRAT add/delete steps so certified runs stay checkable.

    The bookkeeping around propagation builds no lists, closures or sets
    per conflict: conflict analysis works in per-solver buffers sized once
    at {!create} and counts the LBD with a level-stamp array, and the
    decision queue is an int-array heap. The search's work is pinned exactly by the
    integration tests (decisions, propagations, conflicts, learnt literals,
    deleted clauses and the LBD histogram), which also bound the minor
    words allocated per conflict.

    Two tuning presets mirror the two solvers used in the paper (siege_v4 and
    MiniSat): {!siege_like} restarts aggressively with a faster activity
    decay, {!minisat_like} uses Luby restarts with the classic decay. Both are
    deterministic for a fixed configuration seed. *)

type restart_scheme =
  | Luby_restarts of int  (** Luby sequence scaled by the given base. *)
  | Geometric of int * float  (** First interval and multiplier. *)

type config = {
  var_decay : float;  (** VSIDS decay, in (0,1). *)
  clause_decay : float;  (** Learnt-clause activity decay, in (0,1). *)
  restart : restart_scheme;
  random_var_freq : float;  (** Probability of a random decision variable. *)
  phase_saving : bool;
  seed : int;  (** Seed for the internal deterministic RNG. *)
  inprocess_every : int;
      (** Run a bounded inprocessing pass (self-subsumption + vivification)
          every this many restarts; [0] disables inprocessing. *)
  inprocess_budget : int;
      (** Work budget per inprocessing pass, in units of roughly one
          propagation (subsumption checks are charged by literals
          scanned). *)
}

val minisat_like : config
val siege_like : config
val default : config
(** Same as {!minisat_like}. *)

val restart_limit_of_config : config -> int -> int
(** Conflict limit for the [k]-th restart episode under this configuration.
    [Geometric] limits are computed in float and clamped to [max_int] once
    they leave integer range. Exposed for tests. *)

type budget = {
  max_conflicts : int option;
  max_seconds : float option;
  max_memory_mb : int option;
      (** Process-heap ceiling in megabytes, measured from
          [Gc.quick_stat ()] heap words at the same [poll_every] granularity
          as the other limits. Crossing it aborts the search cooperatively
          with {!Memout} instead of letting the runtime OOM. OCaml 5 domains
          share one major heap, so this bounds the whole process image —
          which is exactly what an unattended multi-domain sweep needs: one
          exploding clause database cannot take down sibling workers. *)
  interrupt : (unit -> bool) option;
      (** Polled periodically; returning [true] aborts the search with
          [Unknown]. Used by portfolios and the experiment engine to cancel
          losing or over-deadline runs. An exception raised by the hook is
          treated as the interrupt having fired (the search still ends as
          [Unknown]); it never escapes as a crash. *)
  poll_every : int;
      (** Poll granularity: [max_seconds], [interrupt] and [max_memory_mb]
          are checked when the episode's conflict count is a multiple of
          [poll_every] (default {!default_poll_interval} = 256), and
          additionally every [poll_every * 64] propagations — so a
          conflict-free decision dive on a huge satisfiable instance still
          honours its wall-clock, interrupt and memory budgets. Cancellation
          latency is bounded by whichever poll fires first; lower
          [poll_every] for tighter cancellation, at the cost of calling the
          hooks more often. [max_conflicts] is exact and unaffected. *)
  on_event : (Event.t -> unit) option;
      (** Observability hook: called synchronously from the search loop on
          restarts, learnt-database reductions, inprocessing passes and
          memory polls (see
          {!Event.t}). With the default [None] the solver allocates no event
          values and each emission site is a single branch, so tracing is
          free when disabled. The hook runs on the solving domain; it must
          be fast and must not raise (an exception from it escapes the
          search). [Fpgasat_obs.Trace.sink] is the standard consumer. *)
}

val default_poll_interval : int
(** 256 conflicts. *)

val no_budget : budget
val conflict_budget : int -> budget
val time_budget : float -> budget
val interruptible : (unit -> bool) -> budget -> budget
(** Adds an interrupt hook to an existing budget. *)

val with_poll_interval : int -> budget -> budget
(** Overrides {!field-budget.poll_every}; values below 1 are clamped to 1
    (poll at every conflict). *)

val memory_budget : int -> budget
(** [memory_budget mb] is {!no_budget} with a [max_memory_mb] ceiling. *)

val with_memory_limit : int -> budget -> budget
(** Adds a [max_memory_mb] ceiling to an existing budget. *)

val with_event_hook : (Event.t -> unit) -> budget -> budget
(** Installs an {!field-budget.on_event} observability hook on an existing
    budget. *)

type result =
  | Sat of bool array
      (** A satisfying assignment, indexed by variable; total over all
          allocated variables. *)
  | Unsat
  | Unknown  (** Conflict, time, or interrupt budget exhausted. *)
  | Memout  (** [max_memory_mb] ceiling crossed; the search stopped
                cooperatively. *)

val solve :
  ?config:config -> ?budget:budget -> ?proof:Proof.t -> Cnf.t -> result * Stats.t
(** Solves the formula. When [proof] is supplied and the answer is [Unsat],
    the recorded trace ends with the empty clause (see {!Proof}). The input
    formula is not modified. *)

(** {1 Incremental interface}

    A persistent solver keeps its learnt clauses and activities across
    queries, and each query may fix {e assumption} literals — the MiniSat
    idiom. The minimal-width search uses this to encode a colouring problem
    once and disable colours through selector assumptions, reusing conflict
    clauses across widths. *)

type solver

val create : ?config:config -> ?proof:Proof.t -> Cnf.t -> solver

type query_result =
  | Q_sat of bool array
  | Q_unsat  (** Unsatisfiable together with the given assumptions. *)
  | Q_unknown
  | Q_memout  (** As {!Memout}, per query. *)

val solve_with :
  ?budget:budget -> ?assumptions:Lit.t list -> solver -> query_result
(** [Q_unsat] means the formula plus the assumptions is unsatisfiable; the
    formula alone may still be satisfiable with other assumptions. The
    budget applies per call. *)

val solver_stats : solver -> Stats.t
(** Cumulative over all queries. *)

val check_model : Cnf.t -> bool array -> bool
(** [check_model cnf m] verifies that [m] satisfies every clause of [cnf];
    independent of the solver, used as a safety net by callers and tests. *)

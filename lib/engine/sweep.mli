(** The domain-pool experiment engine, with a fault-tolerant supervisor.

    A sweep is a work queue of jobs — [benchmark × strategy × width] cells,
    or arbitrary thunks returning a {!Fpgasat_core.Flow.run} — executed by
    a fixed {!Pool} of worker domains. The engine provides:

    - {b per-job budgets}: every attempt receives a budget whose interrupt
      hook cancels it cooperatively ({!Fpgasat_sat.Solver.budget}) once its
      wall-clock deadline passes (wall clock, not [Sys.time], because
      process CPU time accumulates across all running domains), and an
      optional [max_memory_mb] ceiling that ends runaway cells as [Memout]
      instead of letting one clause database OOM the whole process;
    - {b crash isolation}: a job that raises becomes a
      [Run_record.Crashed] record — with the exception class and, opt-in,
      its backtrace — never killing the sweep;
    - {b retry with escalation}: with [retry.max_attempts > 1] a
      non-decisive cell is retried with geometrically escalated budgets
      and, optionally, the fallback preset ladder siege → minisat;
      a cell that fails every attempt is {e quarantined}: recorded with
      [quarantined = true], skipped by future [--resume]s, counted in
      {!summary} — instead of crash-looping;
    - {b streamed JSONL}: each completed cell is appended to the results
      file as one {!Run_record} line and flushed before the next progress
      report, so a killed sweep loses at most the in-flight cells;
    - {b resume}: with [resume = true] the engine first parses the results
      file and skips cells already answered (a torn final line — the
      signature of a killed run — is ignored and its cell re-run). A
      retrying sweep re-runs recorded timeout/memout/crash cells that are
      not quarantined, since escalated budgets may now answer them; a
      single-attempt sweep skips everything recorded, as before;
    - {b single writer}: an advisory lock file ([<out>.lock], holding the
      owner pid) makes a second sweep on the same results path fail fast
      with [Sys_error] instead of interleaving corrupt lines; locks whose
      pid is dead are reclaimed silently, so kill + resume stays hands-off;
    - {b progress}: an optional callback observes [completed/total] as
      cells land.

    Text tables over sweep results are pure views: see {!render_table}. *)

type fallback = Primary | Fallback_minisat
(** Which rung of the retry ladder an attempt runs on. [Primary] is the
    job's own strategy; [Fallback_minisat] swaps the solver preset for
    {!Fpgasat_sat.Solver.minisat_like}, on attempt 2 and every later one,
    under the escalated budget. *)

val fallback_name : fallback -> string
(** ["primary"], ["minisat"]. *)

type job = {
  benchmark : string;
  strategy : string;  (** {!Fpgasat_core.Strategy.name} form — the cell key. *)
  width : int;
  run :
    budget:Fpgasat_sat.Solver.budget ->
    certify:bool ->
    telemetry:bool ->
    fallback:fallback ->
    Fpgasat_core.Flow.run;
      (** The work. The engine passes the per-attempt budget (deadline +
          memory ceiling + poll interval — and, when the sweep carries a
          {!config.trace}, the event hook — already threaded in), whether
          the answer must carry a checked certificate ({!config.certify}),
          whether to derive telemetry ({!config.telemetry}), and the ladder
          rung. Jobs that cannot honour a fallback may ignore it. *)
}

val cell :
  benchmark:string ->
  Fpgasat_core.Strategy.t ->
  Fpgasat_fpga.Global_route.t ->
  width:int ->
  job
(** The standard cell: [Flow.submit] of the strategy's request on the route.
    Honours the full fallback ladder. The record always carries the cell's
    own strategy name regardless of which rung answered, so resume keys
    stay stable. *)

type progress = {
  completed : int;  (** Cells finished so far, including skipped ones. *)
  total : int;
  skipped : int;  (** Cells satisfied from the resume file. *)
}

type retry = {
  max_attempts : int;  (** Attempts per cell; 1 = the historical behaviour. *)
  escalation : float;
      (** Geometric budget growth: attempt [n] runs with [budget_seconds]
          and [max_memory_mb] scaled by [escalation^(n-1)]. *)
  fallback_presets : bool;
      (** Run attempts 2 and later on the minisat preset instead of only
          re-running the primary strategy. *)
}

val no_retry : retry
(** [max_attempts = 1] — single attempt, escalation 2.0 (unused), no
    fallback presets. *)

type config = {
  jobs : int;  (** Worker domains; clamped to at least 1. *)
  budget_seconds : float option;
      (** Per-attempt wall-clock deadline; [None] = unbounded. *)
  max_memory_mb : int option;
      (** Per-attempt process-heap ceiling
          ({!Fpgasat_sat.Solver.budget.max_memory_mb}); [None] =
          unbounded. *)
  poll_every : int;
      (** Interrupt poll interval threaded into each job's budget
          (conflicts; see {!Fpgasat_sat.Solver.budget}). *)
  out : string option;  (** JSONL results file, appended to (and locked). *)
  resume : bool;  (** Skip cells already recorded in [out]. *)
  certify : bool;
      (** Certify every decisive cell: UNSAT answers must carry a proof
          accepted by {!Fpgasat_sat.Drat_check}, SAT answers a model that
          passes {!Fpgasat_sat.Solver.check_model} and
          {!Fpgasat_fpga.Detailed_route.verify}. Results gain the
          [certified] record field. *)
  telemetry : bool;
      (** Derive per-solve telemetry ({!Fpgasat_obs.Telemetry}) on every
          cell; records gain the optional [telemetry] key. *)
  trace : Fpgasat_obs.Trace.t option;
      (** When set, every attempt's budget carries the trace's event hook
          ({!Fpgasat_obs.Trace.sink}) and the supervisor records [Retry] /
          [Quarantine] marks into it. One ring shared by all workers. *)
  retry : retry;
  capture_backtrace : bool;
      (** Record crash backtraces into {!Run_record.t.backtrace} (costs a
          little per caught exception; off by default). *)
  on_progress : (progress -> unit) option;
}

val default_config : config
(** [jobs = Pool.default_jobs ()], no budget, no memory ceiling, default
    poll interval, no output file, no resume, no certification, no
    telemetry, no trace, {!no_retry}, no backtraces, no progress
    callback. *)

val run : config -> job list -> Run_record.t list
(** Executes the queue and returns one record per job, in job order — one
    record per cell regardless of how many attempts it took
    ([wall_seconds] totals them; [attempts]/[failure]/[quarantined] are set
    per the supervisor rules above). Duplicate keys in the job list are
    executed once each but resume only distinguishes keys, so keep keys
    unique. Raises [Sys_error] if the results file cannot be opened,
    locked, or written. *)

val load : string -> Run_record.t list * int
(** Parses a JSONL results file: the valid records in file order, plus the
    number of lines that failed to parse (empty lines are not counted). *)

val render_table : Run_record.t list -> string
(** The benchmarks × strategies matrix as a monospace table — a pure view
    over records. Rows are ["bench (W=w)"] in first-appearance order,
    columns strategies in first-appearance order; cells show total CPU
    seconds, [T/O] for timeouts, [M/O] for memouts and [crash] for crashed
    cells, [-] for absent combinations. *)

val summary : Run_record.t list -> string
(** One line: cell counts by outcome; memout and quarantined counts appear
    when non-zero, and when any record carries a [certified] flag, also
    ["c/a certified"] over the cells that attempted it. *)

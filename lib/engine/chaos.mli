(** Deterministic fault injection for the sweep supervisor.

    The supervisor's promises — every fault becomes exactly one classified
    record, a sweep never aborts, resume heals a kill — are only worth
    anything if they are tested. This module wraps a job queue so selected
    cells misbehave in controlled, replayable ways, all behind the ordinary
    {!Sweep.job} interface: the supervisor under test cannot tell a chaos
    run from a real one.

    A {!plan} is a pure function of [(seed, cells)]: the same seed always
    assigns the same fault kinds to the same cell indices, so CI can assert
    exact classified counts and a failure reproduces anywhere. *)

type fault =
  | Raise_at_conflict of int
      (** Crash the cell after the solver's [n]-th budget poll (the hook
          trips, the wrapper re-raises {!Injected} once the solver unwinds)
          — a deterministic mid-solve crash. Cells that finish before [n]
          conflicts never trip it. *)
  | Spurious_interrupt
      (** The interrupt hook reports [true] immediately: the cell ends
          [Timeout] without its budget being exhausted. *)
  | Hook_raise
      (** The interrupt hook raises. The solver must treat this as
          interrupt-fired (ending [Timeout]) — the satellite contract on
          {!Fpgasat_sat.Solver.budget} — not as a crash. *)
  | Alloc_burst of int
      (** Holds the given number of megabytes of live ballast across the
          attempt, so a sweep with [max_memory_mb] set sees the cell
          [Memout] cooperatively. *)
  | Torn_tail
      (** Truncates the results file by a few bytes before the cell runs —
          the torn final JSONL line a [kill -9] leaves. Meaningful under
          [jobs = 1]; resume must drop exactly the torn record. *)
  | Corrupt_drat
      (** Forces certification on and drops the final empty-clause step
          from an UNSAT proof; the checker must refuse it
          ([certified = Some false]) rather than trust the answer. *)

exception Injected of string
(** What {!Raise_at_conflict} and {!Hook_raise} raise; its crash
    classification is ["crash:Fpgasat_engine__Chaos.Injected"]. *)

val fault_name : fault -> string
(** Stable kind tag: ["raise_at_conflict"], ["spurious_interrupt"],
    ["hook_raise"], ["alloc_burst"], ["torn_tail"], ["corrupt_drat"]. *)

val all_kinds : fault array
(** One representative of each kind, with default parameters. *)

type plan = { seed : int; faults : fault option array }
(** [faults.(i)] is the fault injected into the [i]-th job of the queue
    ([None] = healthy cell). *)

val make : seed:int -> cells:int -> plan
(** Deterministic plan: each of the six kinds is assigned to one
    seed-chosen cell first (full taxonomy coverage even in small plans),
    then every remaining cell is faulted with probability ~1/2 with a
    seed-chosen kind. *)

val fault : plan -> int -> fault option
(** [fault plan i] — [None] when [i] is outside the plan. *)

val described : plan -> (int * string option) list
(** [(index, fault-kind-name)] per cell, for logging and assertions. *)

val inject : ?out:string -> plan -> Sweep.job list -> Sweep.job list
(** Wraps the [i]-th job with [faults.(i)]. [out] must be the sweep's
    results path when the plan may contain {!Torn_tail} (the fault
    truncates that file). Jobs beyond the plan's length are untouched. *)

(** Fault kinds for the {e serving} layer (PR 7's solve server), plus the
    supervisor-invariant checker its chaos harness asserts with. The
    server faults are driven differently from the sweep faults: rather
    than wrapping a job queue, the harness sends them as [fault] fields on
    protocol requests (gated behind [serve --test-ops]) or inflicts them
    from outside (a [kill -9], a client that dribbles bytes). *)
module Server : sig
  type fault =
    | Worker_kill
        (** The request raises
            {!Pool.Persistent.Worker_killed} on its worker: the domain
            dies mid-request. The pool must fill the ticket, respawn
            within its restart budget, and repeated kills on one request
            identity must quarantine it. *)
    | Torn_journal
        (** Chop bytes off the cache journal's tail — the torn line a
            kill mid-append leaves. Replay must skip exactly the
            fragment. *)
    | Slow_client
        (** A client that writes its request a few bytes at a time (and
            reads slowly): per-connection threads must keep other clients
            unaffected and the write timeout must eventually reclaim the
            connection. Inflicted client-side by the harness. *)
    | Kill_server
        (** [SIGKILL] mid-request: no drain, no unlink. On restart the
            server must reclaim the stale socket, replay the journal, and
            serve every previously-decisive answer byte-identically. *)

  val fault_name : fault -> string
  (** ["worker_kill"], ["torn_journal"], ["slow_client"],
      ["kill_server"] — the wire form carried by a request's [fault]
      field. *)

  val of_name : string -> fault option

  val all : fault array

  val plan : seed:int -> n:int -> fault array
  (** Deterministic fault sequence: each kind once, then seed-chosen —
      the same replayability contract as {!make}. *)

  val tear_journal : ?bytes:int -> string -> unit
  (** Truncate the file's tail by [bytes] (default 5) — the
      {!Torn_journal} implementation; a no-op on a missing or
      shorter-than-[bytes] file. *)

  val check_invariants :
    expected_workers:int ->
    stats:Fpgasat_obs.Json.t ->
    pairs:(string * string) list ->
    (unit, string) result
  (** Assert the crash-only contract after a fault: [stats] (the server's
      stats payload) must show [pool.workers = expected_workers], and
      every [(before, after)] pair of serialized run payloads must be
      byte-identical. Returns the first violation. *)
end

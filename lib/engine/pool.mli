(** A bounded pool of OCaml 5 domains over a fixed job array.

    This is the parallel substrate of the experiment engine and of
    {!Portfolio}: instead of spawning one unbounded domain per task, a fixed
    number of worker domains pull job indices from a shared counter until
    the queue drains. Results keep the input order, and a job that raises is
    isolated: its slot becomes [Error _] and the other jobs are
    unaffected. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the pool size that saturates the
    machine without oversubscribing it. *)

type error = {
  exn_class : string;
      (** [Printexc.exn_slot_name] of the raised exception — a stable
          constructor name ("Failure", "Stack_overflow", …) the failure
          taxonomy can classify on, independent of the printed payload. *)
  message : string;  (** [Printexc.to_string] of the exception. *)
  backtrace : string option;
      (** Present only when [map] ran with [~record_backtrace:true] and the
          runtime produced a non-empty trace. *)
}

val error_of_exn : ?backtrace:string -> exn -> error
(** Builds an {!error} from a caught exception; exposed for callers that
    catch around the pool (e.g. the sweep's own per-cell wrapper). *)

val map :
  ?jobs:int ->
  ?record_backtrace:bool ->
  ?on_done:(int -> unit) ->
  (unit -> 'a) array ->
  ('a, error) result array
(** [map ~jobs thunks] runs every thunk and returns their results in input
    order. At most [min jobs (Array.length thunks)] worker domains run at
    once (default {!default_jobs}; values below 1 are clamped to 1). With
    [jobs = 1] everything runs sequentially in the calling domain — no
    domain is spawned, so single-job runs execute in a deterministic order.

    [record_backtrace] (default false) turns on backtrace recording inside
    each worker domain so a crashing thunk's {!error} carries its trace;
    recording costs a little time per raised-and-caught exception, hence
    opt-in.

    [on_done], if given, is called after each job completes with the number
    of jobs completed so far (1-based, monotonic); calls are serialised
    under an internal mutex but may come from worker domains. It must not
    raise: an exception from [on_done] kills its worker and the jobs that
    worker would have run are left as [Error].

    A thunk that raises yields [Error e] in its slot, with the exception
    class, message and optional backtrace; the sweep continues. *)

(** A long-lived bounded pool with admission control.

    Where {!map} spins workers up for one job array and joins them, a
    [Persistent.t] keeps a fixed set of worker domains alive across many
    independent submissions — the substrate of the solve server, where
    requests arrive over time and each must be accepted, rejected
    (backlog full) or refused (shutting down) {e immediately}, never
    blocked on a queue. *)
module Persistent : sig
  type t

  exception Worker_killed
  (** The deliberate domain-kill channel. A thunk that raises this does
      not merely fail its ticket: the exception escapes the worker's catch
      and takes the whole worker domain down — the deterministic stand-in
      for a request whose execution destroys its worker (runaway native
      code, a fatal runtime error). The pool fills the ticket with
      [Error] {e before} the domain dies (no waiter hangs) and then
      respawns a replacement under the restart budget. *)

  val worker_killed_class : string
  (** [Printexc.exn_slot_name Worker_killed] — the [exn_class] an
      {!error} carries when its worker died; what
      {!Failure.error_is_worker_death} matches on. *)

  type 'a ticket
  (** A handle on one accepted submission's eventual result. *)

  type 'a submission =
    | Accepted of 'a ticket
    | Rejected  (** Backlog at capacity — the admission-control answer. *)
    | Stopped  (** {!shutdown} has begun; no new work is admitted. *)

  val create :
    ?workers:int ->
    ?queue_capacity:int ->
    ?restart_budget:int ->
    ?restart_backoff:float ->
    unit ->
    t
  (** Spawns [workers] domains (default {!default_jobs}, clamped to ≥ 1)
      that idle until work arrives. [queue_capacity] (default 64, clamped
      to ≥ 1) bounds the number of {e queued} (not yet running)
      submissions; beyond it {!submit} answers {!Rejected}.

      [restart_budget] (default 8, clamped to ≥ 0) bounds how many worker
      deaths the pool will repair over its lifetime: each dead domain is
      replaced by a fresh one until the budget is spent, after which the
      pool shrinks permanently (a pool that respawns forever would turn a
      poisoned request stream into a fork bomb). [restart_backoff]
      (default 0.05 s) is the first replacement's start-up delay; it
      doubles per respawn, capped at 1 s. *)

  val submit : t -> (unit -> 'a) -> 'a submission
  (** Never blocks: either the thunk is queued and a ticket returned, or
      the caller learns instantly that the pool is full or stopping. A
      thunk that raises resolves its ticket to [Error] (exception class +
      message); the worker survives — except {!Worker_killed}, which
      fills the ticket and then kills the worker domain (see above). *)

  val wait : 'a ticket -> ('a, error) result
  (** Blocks the calling thread until the submission has run. *)

  val peek : 'a ticket -> ('a, error) result option
  (** Non-blocking: [None] while still queued or running. *)

  val run : t -> (unit -> 'a) -> ('a, error) result option
  (** [submit] + [wait]; [None] when the pool refused the work. *)

  val backlog : t -> int * int
  (** [(queued, running)] at this instant — the admission-control gauge. *)

  val workers : t -> int
  (** Live worker domains — the configured size while healthy, smaller
      only when deaths have exhausted the restart budget, 0 after
      {!shutdown} returns. A respawn counts immediately (the replacement
      is booting through its backoff delay). *)

  val deaths : t -> int
  (** Worker domains killed so far ({!Worker_killed} escapes). *)

  val respawns : t -> int
  (** Replacement domains spawned so far (≤ {!restart_budget}). *)

  val restart_budget : t -> int
  (** The configured death-repair ceiling. *)

  val shutdown : t -> unit
  (** Graceful drain: stops admission, lets the workers finish every
      already-accepted submission, then joins every worker domain — when
      it returns no spawned domain is left running and every accepted
      ticket is filled. Idempotent; concurrent callers may return while
      the first caller is still joining. *)
end

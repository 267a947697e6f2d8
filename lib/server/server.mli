(** The routing-as-a-service daemon.

    A Unix-domain-socket server speaking {!Protocol} (line-delimited
    JSON). Three layers between socket and solver:

    - {b Warm sessions} ({!Session}): one incremental ladder per
      benchmark × strategy, encoded on first use and reused by every
      later width query. Widths below the session's maximum clique and
      from the fewest colours of any colouring it has seen up are
      answered without a solver, from the stored clique or colouring. A
      certified request goes to the cold {!Fpgasat_core.Flow.submit}
      pipeline only in the gap between the two.
    - {b Answer cache} ({!Answer_cache}): decisive answers keyed by
      CNF structural hash × strategy × width × budget × certify are
      replayed without running a solver. Each is stored as the text of
      its [fpgasat.run/1] record, rendered once when the answer is made
      and written into every later response as it is. With [cache_file]
      set the cache keeps a write-ahead journal, so the answers survive a
      [kill -9] and a restarted server replays them byte-identically.
    - {b Admission control} ({!Fpgasat_engine.Pool.Persistent}): a fixed
      worker-domain pool with a bounded queue. A request past capacity
      gets an [overloaded] response immediately; once drain begins, a
      [shutting_down] response. Both apply to requests that need a
      worker; a cache hit needs none.

    Crash-only design: the server assumes it will die rudely and makes
    restart the recovery path. A worker domain that dies mid-request is
    respawned within the pool's restart budget (the waiting client gets an
    [error], never a hang); a request whose content kills workers
    repeatedly is quarantined by CNF structural hash instead of draining
    the budget; a stale socket from a killed predecessor is probed and
    reclaimed at startup (a {e live} server's socket is never stolen);
    requests carry optional deadlines and are shed with
    [deadline_exceeded] when queue wait has already consumed them.

    Concurrency model: one lightweight thread per connection parses and
    frames; CPU-bound solving runs on the persistent domain pool. A
    [route] request on a session that already exists is screened on its
    connection thread (quarantine, then a deadline already past on
    arrival), and a cache hit is answered there without touching the
    pool, so [overloaded] and shedding in the queue apply to misses only.
    A [worker_kill] fault always goes to the pool. A request line longer
    than {!max_request_line} bytes gets one [error] response and ends its
    connection unread. SIGPIPE is ignored, so a client that hangs up
    before its answer ends only its own connection. SIGTERM (or the
    protocol [shutdown] op) triggers a graceful drain — in-flight
    requests finish, every connection thread and worker domain is joined,
    the journal is closed, the socket file is removed. *)

type config = {
  socket_path : string;
  workers : int;  (** Solver worker domains (default 2). *)
  queue_capacity : int;
      (** Max queued (not yet running) requests before [overloaded]
          (default 16). *)
  cache_capacity : int;  (** Answer-cache entries (default 256). *)
  max_sessions : int;
      (** Warm sessions kept; least-recently-used beyond this is dropped
          (default 16). *)
  max_seconds : float option;
      (** Server-side ceiling on any request's time budget. *)
  max_memory_mb : int option;
      (** Server-side ceiling on any request's memory budget. *)
  cache_file : string option;
      (** Journal the answer cache to this JSONL file
          ({!Answer_cache.attach_journal}): replayed on startup, appended
          under a pid lock while serving. [None] (default) keeps the
          cache in memory only. *)
  test_ops : bool;
      (** Enable the [sleep] op and the request [fault] field —
          deterministic load and chaos injection for tests; keep off in
          production. *)
}

val default_config : socket_path:string -> config

type t

val max_request_line : int
(** The longest request line read, newline excluded: 1 MiB. *)

val start : config -> t
(** Ignores SIGPIPE for the whole process, attaches the cache journal
    (when configured), binds the socket, spawns the worker pool and the
    accept thread, returns immediately.

    A pre-existing socket file is probed with a connect: one refused is
    the residue of a killed predecessor and is reclaimed; one accepted
    belongs to a live server and [start] raises [Failure] instead of
    stealing its clients (as it does for a path that exists but is not a
    socket, or a cache file locked by a live process). *)

val stop : t -> unit
(** Graceful drain: stops accepting, lets in-flight requests finish,
    joins every connection thread and worker domain, closes the journal,
    closes and unlinks the socket. Idempotent; blocks until fully
    drained. *)

val request_stop : t -> unit
(** Async-signal-safe part of {!stop}: flags the stop and wakes the
    accept loop, without blocking. {!stop} (or {!run}'s main loop) does
    the joining. *)

val stop_requested : t -> bool

val run : config -> unit
(** {!start}, install SIGTERM/SIGINT handlers that {!request_stop}, block
    until a stop is requested (signal or protocol [shutdown] op), then
    drain via {!stop}. The daemon entry point behind [fpgasat serve]. *)

val stats_json : t -> Fpgasat_obs.Json.t
(** The same counters the protocol [stats] op returns. Alongside the
    request/cache/session gauges: [pool.deaths] and [pool.respawns] (the
    supervision history), [cache.replayed] and [cache.torn] (what the
    journal replay recovered and skipped), [deadline_exceeded] and
    [quarantined] shed counts, and [poisoned_hashes] (problems currently
    quarantined). *)

val replayed : t -> int
(** Journal entries replayed into the cache at startup (0 without
    [cache_file]). *)

val socket_path : t -> string

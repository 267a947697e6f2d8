(** A small thread-safe LRU cache for served answers, with an optional
    write-ahead journal that makes it survive a [kill -9].

    Keys are the server's request identity strings —
    [cnf-structural-hash × strategy × width × budget-signature × certify]
    — so a byte-identical question is answered without running a solver,
    and any change to the problem content, the strategy, or the budget
    misses. Only decisive outcomes are worth storing (the server's rule;
    the cache itself is policy-free).

    {b Journal.} With {!attach_journal}, every {!add} is appended to a
    JSONL file (and flushed) before the call returns — write-ahead
    discipline, so an answer the server has promised is never lost to a
    crash. For the server's run-record values each line is the value's own
    [fpgasat.run/1] object plus one extra [cache_key] field, which keeps
    the journal readable by the ordinary record tooling. On attach the
    file is replayed oldest-first (later lines supersede earlier ones;
    LRU capacity truncates the excess), a torn final line — the mark of a
    kill mid-append — is skipped and counted rather than fatal, and the
    journal is compacted in place (atomic rename) so dead entries and the
    torn tail disappear. The file is guarded by a {!Fpgasat_engine.Lockfile}
    pid lock: a second live server on the same journal fails fast, a stale
    lock from a kill is reclaimed silently. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** Default capacity 256; clamped to ≥ 1. *)

val find : 'a t -> string -> 'a option
(** Refreshes the entry's recency on hit; counts hit/miss. Recency is not
    journaled — after a restart the replay order stands in for it. *)

val recheck : 'a t -> string -> 'a option
(** {!find} without counting a hit or a miss: a second look at a key
    whose {!find} already counted, for an answer that may have arrived
    since. Refreshes recency on hit. *)

val add : 'a t -> string -> 'a -> unit
(** Inserts (or refreshes) the binding, evicting the least-recently-used
    entry when the cache is full. With a journal attached, the entry is
    appended and flushed before [add] returns; a journal write error
    degrades the cache to in-memory-only instead of raising. *)

val attach_journal :
  'a t ->
  path:string ->
  to_json:('a -> Fpgasat_obs.Json.t) ->
  of_json:(Fpgasat_obs.Json.t -> 'a option) ->
  (int, string) result
(** Take the pid lock on [path], replay any existing entries into the
    cache (tolerating a torn tail), compact the file, and start journaling
    subsequent {!add}s to it. Returns the number of replayed entries, or
    [Error] when a live process holds the lock (or the file is not
    writable). [of_json] returning [None] skips (and counts) the line. *)

val detach_journal : 'a t -> unit
(** Close the journal and release the lock; idempotent. The cache keeps
    serving from memory. *)

val journal_path : 'a t -> string option

val replayed : 'a t -> int
(** Entries applied by the last {!attach_journal} replay. *)

val torn : 'a t -> int
(** Lines the last replay skipped: torn tail, unparseable JSON, missing
    [cache_key], or [of_json] rejection. *)

val length : 'a t -> int
val capacity : 'a t -> int

val stats : 'a t -> int * int * int
(** [(hits, misses, evictions)] since creation. *)

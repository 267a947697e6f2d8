(** The stable machine-readable schema for one experiment cell.

    One record = one [Flow.submit] run (or a crash while attempting
    it) on one [benchmark × strategy × width] cell. Records serialise to a
    single JSON line and parse back loss-free, which makes files of them
    (JSONL) the durable form of every sweep: text tables are pure views
    over parsed records, and a sweep restarted with [--resume] skips the
    cells whose records are already on disk.

    Schema (version [fpgasat.run/1]; unknown extra keys are ignored on
    parse so the schema can grow backward-compatibly):

    {v
    {"schema":"fpgasat.run/1","benchmark":"alu2",
     "strategy":"ITE-linear-2+muldirect/s1@siege","width":4,
     "outcome":"routable|unroutable|timeout|memout|crashed","crash":"msg?",
     "certified":true?,"attempts":n?,"failure":"tag?","backtrace":"bt?",
     "quarantined":true?,
     "telemetry":{"propagations_per_sec":f,"conflicts_per_sec":f,
                  "lbd_hist":[n,...],"words_allocated":n,
                  "peak_heap_words":n,"solve_seconds":f}?,
     "timings":{"to_graph":s,"to_cnf":s,"solving":s},"wall_seconds":s,
     "cnf":{"vars":n,"clauses":n},
     "solver":{"decisions":n,"propagations":n,"conflicts":n,"restarts":n,
               "learnt_clauses":n,"learnt_literals":n,"deleted_clauses":n,
               "max_decision_level":n}}
    v}

    The ["crash"] key is present exactly when [outcome] is ["crashed"], and
    ["certified"] exactly when the run was certified (sweeps with
    [--certify]). The supervisor keys are likewise optional: ["attempts"]
    appears when the sweep ran with retries enabled, ["failure"] carries the
    {!Failure.name} classification of a non-decisive cell, ["backtrace"] the
    opt-in crash backtrace, and ["quarantined"] is present (as [true]) only
    on cells the supervisor gave up on. All are omitted otherwise, so
    records from older sweeps parse unchanged and single-attempt sweeps emit
    byte-identical lines. *)

type outcome =
  | Routable
  | Unroutable
  | Timeout
  | Memout
      (** The solver crossed its [max_memory_mb] ceiling and stopped
          cooperatively. *)
  | Crashed of string
      (** The cell's thunk raised; the payload is the exception text. A
          crashed cell never aborts the sweep it belongs to. *)

type t = {
  benchmark : string;
  strategy : string;  (** {!Fpgasat_core.Strategy.name} form. *)
  width : int;
  outcome : outcome;
  timings : Fpgasat_core.Flow.timings;
  wall_seconds : float;
  cnf_vars : int;
  cnf_clauses : int;
  stats : Fpgasat_sat.Stats.t;
  certified : bool option;
      (** Mirrors {!Fpgasat_core.Flow.run.certified}: [Some true] iff the
          answer carried an independently checked certificate. *)
  telemetry : Fpgasat_obs.Telemetry.t option;
      (** Mirrors {!Fpgasat_core.Flow.run.telemetry}: derived per-solve
          rates, present only on sweeps run with telemetry enabled. Like
          the other optional keys it is absent (not null) otherwise, so
          pre-telemetry records parse unchanged and sweeps without it emit
          byte-identical lines. *)
  attempts : int option;
      (** How many attempts the supervisor spent on this cell; [None] on
          single-attempt sweeps (the historical behaviour). *)
  failure : string option;
      (** {!Failure.name} classification (["timeout"], ["memout"],
          ["crash:<exn-class>"]) of the final attempt when it was not
          decisive; [None] on decisive cells. *)
  backtrace : string option;
      (** Raw backtrace of a crash, captured only when the sweep opted in
          ([Sweep.config.capture_backtrace]). *)
  quarantined : bool;
      (** The cell failed every allowed attempt; resume skips it instead of
          crash-looping. *)
}

val schema_version : string
(** ["fpgasat.run/1"]. *)

val make_key : benchmark:string -> strategy:string -> width:int -> string
val key : t -> string
(** The cell identity ["benchmark|strategy|width"] — what resume
    deduplicates on. *)

val of_run :
  ?strategy:string ->
  ?attempts:int ->
  ?failure:string ->
  ?quarantined:bool ->
  benchmark:string ->
  wall_seconds:float ->
  Fpgasat_core.Flow.run ->
  t
(** [strategy] overrides the name taken from the run — required for key
    stability when a fallback preset answered the cell (the record must keep
    the cell's own strategy or resume would re-run it). [quarantined]
    defaults to [false]. *)

val crashed :
  ?attempts:int ->
  ?failure:string ->
  ?backtrace:string ->
  ?quarantined:bool ->
  benchmark:string ->
  strategy:string ->
  width:int ->
  wall_seconds:float ->
  string ->
  t

val outcome_name : outcome -> string
val decisive : t -> bool
(** Routable or Unroutable. *)

val total_seconds : t -> float
(** Paper-style total CPU time: graph + CNF + solving. *)

val to_json : t -> Fpgasat_obs.Json.t
val of_json : Fpgasat_obs.Json.t -> (t, string) result
val to_line : t -> string
(** One JSON line, without the trailing newline. *)

val of_line : string -> (t, string) result
val equal : t -> t -> bool
(** Structural; floats compared bit-exactly (round-trip property). *)

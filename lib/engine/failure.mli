(** Classification of non-decisive experiment cells.

    Every cell a sweep cannot answer falls into exactly one of three
    buckets: the budget ran out ({!Timeout}), the memory ceiling was crossed
    ({!Memout}), or the cell's code raised ({!Crash}). The supervisor's
    retry and quarantine decisions, the run-record ["failure"] key, and the
    chaos harness's assertions all speak this vocabulary. *)

type t =
  | Timeout  (** Wall-clock, conflict, or interrupt budget exhausted. *)
  | Memout  (** [max_memory_mb] ceiling crossed; stopped cooperatively. *)
  | Crash of {
      exn_class : string;
          (** [Printexc.exn_slot_name] — the exception constructor name,
              stable across payloads ("Failure", "Invalid_argument", …). *)
      message : string;  (** [Printexc.to_string] rendering. *)
      backtrace : string option;  (** Present when recording was opted in. *)
    }

val of_outcome : Fpgasat_core.Flow.outcome -> t option
(** [None] on decisive outcomes (routable/unroutable); the classification
    otherwise. *)

val of_exn : ?backtrace:string -> exn -> t
(** Classify a caught exception directly. *)

val name : t -> string
(** The stable record tag: ["timeout"], ["memout"], or
    ["crash:<exn-class>"]. Parseable back to the bucket by prefix. *)

val message : t -> string
(** Human-oriented one-liner (the exception text for crashes). *)

val backtrace : t -> string option

val transient : t -> bool
(** Heuristic: [true] for timeout/memout, which a bigger escalated budget
    may cure; [false] for crashes, which only a different solver might. The
    supervisor retries both but only escalates budgets for transient ones'
    sake. *)

val error_is_worker_death : Pool.error -> bool
(** [true] exactly when the error's exception class is
    {!Pool.Persistent.worker_killed_class} — the request killed its worker
    domain rather than merely raising. The server quarantines request
    identities that do this repeatedly. *)

val pp : Format.formatter -> t -> unit

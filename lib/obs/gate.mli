(** The performance gate: one check for every regression the bench gates.

    A document ([fpgasat.bench/1]) is a named set of sections, each a flat
    [cell → value] map — the durable JSON form of one bench run. The bench
    declares, where it measures a section, the {!kind} that section is
    judged by, and {!check} compares that current run against a committed
    baseline document:
    - [Ratio tol]: the geometric mean of per-cell current/baseline ratios
      must be at most [tol]. Values are clamped to 1 µs before forming
      ratios, so zero-time cells compare as equal instead of dividing by
      zero. For wall times and other lower-is-better costs.
    - [Exponent tol]: every cell may exceed its baseline by at most [tol],
      absolute and unclamped. For fitted scaling exponents, which a
      uniformly faster or slower machine leaves alone.

    One set of rules for every kind, pinned by test_obs:
    - a baseline section absent from the current run {b fails} the gate
      (the bench silently dropping a measurement must not pass);
    - a baseline cell absent from its current section likewise fails and
      is listed;
    - sections and cells only in the current run are ignored (adding
      benches never fails the gate);
    - a non-positive tolerance raises [Invalid_argument]. *)

type t

val schema_version : string
(** ["fpgasat.bench/1"]. *)

val make : (string * (string * float) list) list -> t
(** [make [section, [cell, value; ...]; ...]]. *)

val sections : t -> (string * (string * float) list) list

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result
val of_string : string -> (t, string) result
val of_file : string -> (t, string) result
(** [Error] on unreadable files as well as on parse failures. *)

val to_file : string -> t -> unit

(** {1 The check} *)

type kind = Ratio of float | Exponent of float

type section = { name : string; kind : kind; cells : (string * float) list }
(** One section of the current run with the kind it is judged by. *)

type cell = {
  cell : string;
  baseline : float;
  current : float option;  (** [None]: missing from the current section. *)
  ok : bool;
      (** Present, and for an [Exponent] section within tolerance. *)
}

type section_report = {
  section : string;
  kind : kind option;  (** [None]: the section vanished from the run. *)
  ratio : float option;
      (** [Ratio] sections: the geometric mean of current/baseline over
          the cells present in both; [None] for other kinds or when no
          cell is comparable. *)
  cells : cell list;  (** One per baseline cell, in baseline order. *)
  ok : bool;
}

type report = {
  sections : section_report list;  (** One per {e baseline} section. *)
  ok : bool;  (** All sections ok. *)
}

val check : baseline:t -> current:section list -> report
(** Raises [Invalid_argument] when a current section's tolerance is not
    positive. *)

val render : report -> string
(** Human-readable verdict: one line per section, one more per cell of an
    [Exponent] section, ending in [PASS] or [FAIL: ...]. *)

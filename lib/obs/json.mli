(** A minimal JSON implementation (no external dependencies).

    Covers exactly what the run records need: the seven JSON value forms,
    a compact single-line printer, and a strict recursive-descent parser.
    Numbers without a fraction or exponent parse as {!Int}; everything else
    numeric parses as {!Float}. The printer emits floats with enough digits
    to round-trip bit-exactly through {!of_string} (non-finite floats are
    emitted as [null], as JSON has no representation for them). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact, single-line (no newlines even inside strings — they are
    escaped), suitable for JSONL. *)

val of_string : string -> (t, string) result
(** Parses one JSON value; trailing non-whitespace is an error. A [\u]
    escape takes exactly four hex digits, and arrays and objects nest at
    most 64 levels deep. Malformed input gives [Error], not an
    exception. *)

val find : t -> string -> t option
(** First binding of the key in an {!Obj}; [None] otherwise. *)

val equal : t -> t -> bool
(** Structural equality; [Float] compared bit-exactly (NaN equals NaN). *)

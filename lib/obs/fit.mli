(** Power-law fitting over dimensional sweep records and the
    [fpgasat.scaling/1] schema.

    A dimensional sweep measures each strategy on a grid of instance sizes;
    this module turns those measurements into per-strategy, per-dimension
    scaling laws [t ≈ C · x^e] by least squares on [log t] against
    [log x]. CI gates on the fitted exponent [e] ({!exponents} feeds
    [Gate]), so a perf regression is caught in the {e growth rate}, not
    just one cell.

    Fitting is {b pooled with per-group intercepts}: when the dimension
    [x] varies while other dimensions also take several values, every
    combination of the other dimensions forms a {e group} with its own
    intercept (its own constant [C]) but all groups share one slope. On a
    full cartesian grid this uses every cell for every dimension's fit
    instead of only the cells on one axis line, which is what makes tiny
    2×2×2 CI sweeps statistically usable.

    All functions are pure: the same points produce bit-identical fits on
    every machine, so a fit over a committed JSONL record set is fully
    deterministic. *)

type point = {
  x : float;  (** The dimension value (e.g. net count). *)
  y : float;  (** Seconds; clamped to 1 µs before the log. *)
  group : string;
      (** The values of every {e other} dimension, serialised — points
          with equal [group] share an intercept. *)
}

type fit = {
  strategy : string;
  dimension : string;
  exponent : float;  (** The fitted power [e] of [t ≈ C · x^e]. *)
  intercepts : (string * float) list;
      (** Per-group [ln C], in first-appearance order of the groups. *)
  r2 : float;
      (** Coefficient of determination of the pooled log-log fit; [1.]
          when the within-group variance is zero. *)
  points : int;  (** Points the fit used. *)
  censored : int;
      (** Cells excluded before fitting (timeout / memout / crashed) —
          carried for honesty in reports; censored cells never enter the
          fit. *)
}

val min_seconds : float
(** 1e-6 — times are clamped here before taking logs, so zero- and
    µs-level cells fit as equal instead of producing [-inf]. *)

val power_law :
  strategy:string ->
  dimension:string ->
  ?censored:int ->
  point list ->
  (fit, string) result
(** Pooled log-log least squares. [Error] when fewer than two points
    exist or no group contains two distinct [x] values (a slope is then
    undefined). *)

val eval : fit -> group:string -> float -> float
(** [eval fit ~group x] is the fitted seconds at [x] for that group's
    intercept (the mean intercept when the group is unknown). *)

val residuals : fit -> point list -> float list
(** Log-space residuals [ln y - (ln C_g + e ln x)], in point order. *)

val crossover_of_fits : fit -> fit -> float option
(** The [x] where two strategies' fitted curves (mean intercepts) cross:
    [exp ((i2 - i1) / (e1 - e2))]. [None] for (near-)parallel exponents
    or a non-finite solution. *)

(** {1 The scaling document} *)

type crossover = {
  dimension : string;
  slow : string;  (** Strategy with the larger exponent… *)
  fast : string;  (** …overtakes this one past [at]. *)
  at : float;
}

type scaling = {
  seed : int;  (** Generator seed the records came from. *)
  family : string;  (** ["sat"], ["unsat"] or ["mixed"]. *)
  fits : fit list;
  crossovers : crossover list;
}

val schema_version : string
(** ["fpgasat.scaling/1"]. *)

val to_json : scaling -> Json.t
val of_json : Json.t -> (scaling, string) result
val of_string : string -> (scaling, string) result

val of_file : string -> (scaling, string) result
(** [Error] on unreadable files as well as on parse failures. *)

val to_file : string -> scaling -> unit

val equal : scaling -> scaling -> bool
(** Structural; floats compared bit-exactly (round-trip property). *)

val render : scaling -> string
(** The fitted-exponent table plus crossover lines — "encoding X is
    O(n^1.4), Y is O(n^2.1), crossover at n≈37". *)

val exponents : scaling -> (string * float) list
(** One cell per fit, named [strategy|dimension] and valued by its fitted
    exponent — the section the bench hands to [Gate] under its
    [Exponent] kind. *)

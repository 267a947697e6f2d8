(** The encodings compared in the paper, as first-class values.

    An encoding pairs a {e shape} — how a domain value maps to a pattern of
    slot literals — with an {e emission mode} — how the encoder turns those
    patterns into clauses. The shape is either one of the five simple
    encodings or a hierarchical composition [top-<n>+bottom] where [n] is
    the Boolean variable budget of the top level (so
    [ITE-linear-2+muldirect] partitions each domain with a 2-variable ITE
    chain into three subdomains, then selects inside subdomains with a
    shared muldirect encoding).

    The emission mode is orthogonal: {!Flat} expands every indexing pattern
    verbatim into each conflict clause (the paper's emission), while
    {!Definitional} routes patterns through the {!Emit} context —
    Plaisted–Greenbaum definitional variables with structural hashing — so
    each (vertex, value) pattern is defined once and conflict clauses
    shrink to binary. Definitional variants are named with a [+defs]
    suffix, e.g. ["ITE-linear-2+muldirect+defs"]. *)

type emission = Flat | Definitional

type shape =
  | Simple of Simple_encoding.kind
  | Hier of {
      top : Simple_encoding.kind;
      top_vars : int;
      bottom : Simple_encoding.kind;
      shared : bool;
          (** Share bottom variables across subdomains (the paper's choice,
              [true] everywhere in the evaluation); [false] is the ablation
              variant with per-subdomain bottom variables. *)
    }
  | Multi of {
      levels : (Simple_encoding.kind * int) list;
          (** Top-down [(kind, variable budget)] levels; at least two for
              this constructor (one level is {!Hier}). *)
      bottom : Simple_encoding.kind;
    }
      (** Extension beyond the paper's evaluation: the fully general
          multi-level hierarchy of Sect. 4 (cf. Kwon & Klieber's
          direct-i+direct chains). *)

type t = { shape : shape; emission : emission }

val simple : ?emission:emission -> Simple_encoding.kind -> t

val hier :
  ?shared:bool -> ?emission:emission -> top:Simple_encoding.kind ->
  top_vars:int -> bottom:Simple_encoding.kind -> unit -> t

val multi :
  ?emission:emission -> levels:(Simple_encoding.kind * int) list ->
  bottom:Simple_encoding.kind -> unit -> t

val shape : t -> shape
val emission : t -> emission

val flat : t -> t
(** The same shape emitted flat (the paper's form). *)

val defs : t -> t
(** The same shape emitted definitionally ([+defs]). *)

val is_definitional : t -> bool

val layout : t -> int -> Layout.t
(** [layout e k] is the layout of [e] over a domain of [k] values. The
    layout depends only on the shape; the emission mode decides what
    {!Csp_encode} does with it. *)

val name : t -> string
(** Paper-style name, e.g. ["ITE-linear-2+muldirect"]; definitional
    variants carry a ["+defs"] suffix. *)

val of_name : string -> (t, string) result
(** Parses names as printed by {!name} (case-insensitive). *)

val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

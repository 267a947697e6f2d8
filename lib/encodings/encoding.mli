(** The encodings compared in the paper, as first-class values.

    An encoding is a {e shape}: how a domain value maps to a pattern of
    slot literals. The shape is either one of the five simple encodings or
    a hierarchical composition [top-<n>+bottom] where [n] is the Boolean
    variable budget of the top level (so [ITE-linear-2+muldirect]
    partitions each domain with a 2-variable ITE chain into three
    subdomains, then selects inside subdomains with a shared muldirect
    encoding). {!Csp_encode} expands every indexing pattern verbatim into
    each conflict clause, the paper's flat emission. *)

type t =
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

val layout : t -> int -> Layout.t
(** [layout e k] is the layout of [e] over a domain of [k] values. *)

val name : t -> string
(** Paper-style name, e.g. ["ITE-linear-2+muldirect"]. *)

val of_name : string -> (t, string) result
(** Parses names as printed by {!name} (case-insensitive). *)

val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

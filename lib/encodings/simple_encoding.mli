(** The five simple encodings (paper, Sects. 2-3) as layouts.

    - {e direct} (de Kleer): one Boolean per value, at-least-one +
      pairwise at-most-one clauses;
    - {e muldirect} (Selman et al.): direct without at-most-one, so a model
      may select several values;
    - {e log} (Iwama & Miyazaki): ⌈log₂ k⌉ Booleans, values are binary codes
      (LSB in slot 0), unused codes excluded by clauses;
    - {e ITE-linear}: the chain tree of Fig. 1(a);
    - {e ITE-log}: the balanced tree of Fig. 1(b).

    Each is produced as a {!Layout.t} over local slots; hierarchical
    composition and Boolean-variable allocation happen elsewhere. *)

type kind = Direct | Muldirect | Log | Ite_linear | Ite_log

val all_kinds : kind list
val kind_name : kind -> string
val kind_of_name : string -> kind option

val layout : kind -> int -> Layout.t
(** [layout kind k] encodes a domain of [k >= 1] values. *)

val values_reachable : kind -> int -> int
(** [values_reachable kind n] is how many values (or subdomains) the kind
    can distinguish with a budget of [n] slots when used as the top level of
    a hierarchical encoding: [n] for direct/muldirect, [2^n] for log and
    ITE-log, [n + 1] for ITE-linear. *)

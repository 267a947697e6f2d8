(** The encoding sets the paper evaluates.

    All names are resolvable with {!Encoding.of_name}; these lists drive the
    benchmark harness and the CLI. *)

val previously_used : Encoding.t list
(** The two encodings earlier SAT-based FPGA routers used: log and
    muldirect. *)

val direct : Encoding.t
(** Plain direct — mentioned in Sect. 6 as worse than muldirect. *)

val new_encodings : Encoding.t list
(** The 12 new encodings, in the paper's order (Sect. 6). *)

val all : Encoding.t list
(** Previously used + direct + the 12 new ones (15 total). *)

val multi_level_extensions : Encoding.t list
(** Beyond the paper's evaluation: three-level hierarchies, exercising the
    fully general composition of Sect. 4 (Kwon & Klieber's
    direct-i+direct family and ITE variants). *)

val table2 : Encoding.t list
(** The seven encodings whose columns appear in Table 2. *)

val in_registry : Encoding.t -> bool
(** Whether the encoding is one the repository tracks: {!all} or
    {!multi_level_extensions}. *)

val of_name : string -> (Encoding.t, string) result
(** Total, validated name resolution for the strategy layer: the name must
    parse {e and} the encoding — modulo the [!unshared] sharing
    ablation — must be in the registry ({!all} or
    {!multi_level_extensions}). Anything else, including well-formed names
    with unbounded variable budgets ("direct-999999+direct"), is an
    [Error] with an explanatory message, never an exception — so a
    network-facing caller (the solve server) can reject a malformed
    strategy string with a protocol error instead of crashing or encoding
    an adversarial shape. This replaces the permissive [find] passthrough;
    raw exploration beyond the registry goes through {!Encoding.of_name}
    (the CLI's [-e] flags). *)

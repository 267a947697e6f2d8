(** Indexed binary max-heap over variables, ordered by a mutable score array.

    The CDCL solver stores VSIDS activities in a float array and uses this
    heap to pick the most active unassigned variable. The heap holds the
    variables [0 .. Array.length scores - 1], each at most once, in an int
    array allocated by {!create}; no operation allocates afterwards. *)

type t

val create : scores:float array -> t
(** An empty heap whose ordering is given by [scores] (shared, mutable: after
    changing a member's score, call {!rescore}). *)

val in_heap : t -> int -> bool
val insert : t -> int -> unit
(** No-op if already present. *)

val remove_max : t -> int
(** Raises [Not_found] when empty. *)

val is_empty : t -> bool
val rescore : t -> int -> unit
(** [rescore h v] restores heap order after [v]'s score changed (either
    direction). No-op if [v] is not in the heap. *)

(** Growable arrays, used for watcher lists and clause databases.

    A thin dynamic-array layer over [Array]; elements beyond [size] are
    garbage and must not be observed. Every operation that vacates slots
    ([pop], [clear], [shrink], [swap_remove], [filter_in_place]) overwrites
    them with [dummy] so removed elements become unreachable and the GC can
    collect them. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** [create ~dummy ()] is an empty vector. [dummy] fills unused slots. *)

val size : 'a t -> int
val is_empty : 'a t -> bool
val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
val push : 'a t -> 'a -> unit
val pop : 'a t -> 'a
(** Removes and returns the last element. Raises [Invalid_argument] when
    empty. *)

val last : 'a t -> 'a
val clear : 'a t -> unit
(** Resets the size to [0] without shrinking storage. *)

val shrink : 'a t -> int -> unit
(** [shrink v n] drops elements so that exactly [n] remain. *)

val swap_remove : 'a t -> int -> unit
(** [swap_remove v i] removes element [i] by moving the last element into
    its place: O(1), does not preserve order. *)

val iter : ('a -> unit) -> 'a t -> unit
val to_list : 'a t -> 'a list
val filter_in_place : ('a -> bool) -> 'a t -> unit
(** Keeps only elements satisfying the predicate, preserving order. *)

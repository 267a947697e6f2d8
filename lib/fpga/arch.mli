(** Island-style FPGA array model.

    An [n × n] grid of logic blocks. Routing channels run between the rows
    and columns (and around the perimeter): vertical channel [x ∈ 0..n]
    left of column [x], horizontal channel [y ∈ 0..n] below row [y]. Each
    channel is divided into unit-length {e segments} by the switch blocks at
    the channel crossings. Every segment carries [W] parallel tracks.

    Switch blocks are of the {e subset} kind (as in the SEGA model the
    paper builds on): a connection through a switch block stays on the same
    track index, which is what makes detailed routing equivalent to
    colouring — a routed 2-pin net occupies one track along its whole path.

    Logic blocks reach the four adjacent channel segments through
    {e connection blocks}, which are full (any pin can reach any track). *)

type t
(** The array geometry (track count is a separate parameter, [W]). *)

type direction = Horizontal | Vertical

type segment = { dir : direction; sx : int; sy : int }
(** A vertical segment [{dir = Vertical; sx = x; sy = y}] runs along
    channel [x ∈ 0..n] spanning row [y ∈ 0..n-1]; a horizontal one along
    channel [y ∈ 0..n] spanning column [x ∈ 0..n-1]. *)

type cell = int * int
(** Logic block coordinates, [0 .. n-1] each. *)

val create : int -> t
(** [create n] is an [n × n] array; requires [n >= 1]. *)

val size : t -> int
val num_segments : t -> int
val segment_id : t -> segment -> int
(** Dense id in [0, num_segments). Raises [Invalid_argument] for a segment
    outside the array. *)

val segment_of_id : t -> int -> segment
val in_bounds : t -> segment -> bool
val cell_in_bounds : t -> cell -> bool

val cell_segments : t -> cell -> segment list
(** The four segments a logic block's connection blocks reach: left, right,
    bottom, top. *)

val adjacent_segments : t -> segment -> segment list
(** Segments reachable through the switch blocks at either end (not
    including the segment itself). *)

val segments_touch : t -> segment -> segment -> bool
(** Share a switch block. *)

val all_segments : t -> segment list
val pp_segment : Format.formatter -> segment -> unit

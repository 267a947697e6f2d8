(** Detailed routings: a track assignment for every 2-pin subnet.

    Produced from a colouring of the conflict graph; verified directly
    against the FPGA model (not against the graph), so the whole
    reduce-encode-solve-decode pipeline is checked end to end. *)

type t = private {
  route : Global_route.t;
  width : int;  (** Tracks per channel, [W]. *)
  tracks : int array;  (** [tracks.(subnet_id)] in [0, width). *)
}

type violation =
  | Track_out_of_range of int  (** Subnet with an illegal track. *)
  | Segment_conflict of { segment : Arch.segment; subnet_a : int; subnet_b : int }
      (** Two subnets of different nets on one (segment, track). *)

val of_coloring :
  Global_route.t -> width:int -> Fpgasat_graph.Coloring.t -> (t, violation) result
(** Checks the assignment against the architecture before accepting it. *)

val verify : Global_route.t -> width:int -> int array -> (unit, violation) result
(** The underlying checker, usable on any raw track assignment. *)

val clique_refutes : Global_route.t -> width:int -> int array -> bool
(** [clique_refutes gr ~width subnets] checks a certificate that [gr] has
    no detailed routing with [width] tracks: more than [width] subnets
    (and at least one), pairwise of different nets and pairwise sharing a
    channel segment, so each needs a track of its own. A repeated or
    out-of-range subnet id fails the check. Returns on any array and
    never raises. *)

val track : t -> int -> int
val pp_violation : Format.formatter -> violation -> unit

val channel_occupancy : t -> (Arch.segment * (int * int) list) list
(** For each used segment, the [(track, subnet)] pairs on it — a
    human-readable cross-section of the detailed routing. *)

(** Greedy colouring heuristics.

    These provide fast upper bounds on the chromatic number. The flow uses
    them to bracket the binary search for the minimal channel width, and the
    benchmark harness uses DSATUR as the non-SAT baseline detailed router
    (one-net-at-a-time, cannot prove unroutability — the contrast the paper
    draws in its introduction). *)

val dsatur : Graph.t -> Coloring.t
(** Brélaz's DSATUR: always colour the vertex with the highest saturation
    (number of distinct colours among neighbours), ties by higher degree
    and then lower index, with the smallest colour no neighbour has. Uses
    O(n + m) words. *)

val upper_bound : Graph.t -> int
(** Colours used by DSATUR — an upper bound on the chromatic number. *)

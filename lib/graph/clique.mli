(** Clique lower bounds.

    A clique of size [c] forces at least [c] colours, i.e. at least [c]
    tracks in the FPGA reading, and its vertices are a certificate of
    that: [c] subnets of different nets that pairwise share a channel
    segment cannot fit on fewer tracks. Both width searches start from {!maximum}'s clique, and
    the solve server refutes every width below it without a SAT call. The
    benchmark generator sets its unroutable family's width one track below
    {!lower_bound}, so those instances are unroutable by construction. *)

val greedy : Graph.t -> int list
(** A maximal (not maximum) clique, grown greedily from the highest-degree
    vertex, preferring high-degree candidates. Empty for the empty graph. *)

val lower_bound : Graph.t -> int
(** Size of {!greedy}'s clique. *)

val maximum : Graph.t -> int list
(** A maximum clique, in increasing vertex order: branch and bound over
    adjacency bitsets, pruned by greedy colourings of the candidates and
    seeded with {!greedy}'s clique, so it is never smaller. Past 100,000
    search-tree nodes the search stops with the largest clique found so
    far, which is still a clique, though perhaps not a maximum one. Empty
    for the empty graph. *)

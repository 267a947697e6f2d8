(** The bracket both width searches start from, with a witness for each
    end.

    The minimal width [w] of a conflict graph satisfies
    [lower <= w <= upper]: a clique of [lower] vertices needs [lower]
    colours, and a colouring in [upper] colours exists. Exact colouring
    searches only that gap, and so do {!Binary_search},
    {!Incremental_width} and the solve server's sessions. Each bound
    comes with its certificate: the clique refutes every width below
    [lower] ({!Fpgasat_fpga.Detailed_route.clique_refutes} checks it
    against the global route), and the colouring routes every width from
    [upper] up ({!Fpgasat_fpga.Detailed_route.verify}). *)

type t = private {
  clique : int array;
      (** A maximum clique ({!Fpgasat_graph.Clique.maximum}), in
          increasing vertex order. *)
  coloring : Fpgasat_graph.Coloring.t;
      (** The DSATUR colouring ({!Fpgasat_graph.Greedy.dsatur}). *)
  lower : int;  (** The clique's size, at least 1. *)
  upper : int;  (** The colouring's colours, at least [lower]. *)
}

val of_graph : Fpgasat_graph.Graph.t -> t
(** Runs the clique search and DSATUR once each. *)

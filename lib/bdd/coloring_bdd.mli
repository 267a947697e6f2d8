(** BDD-based graph colouring — the pre-SAT baseline.

    Builds one monolithic BDD over the direct-encoding variables
    (exactly-one colour per vertex, disequalities per edge), as the
    BDD-era routability checkers did. Decides colourability, extracts a
    colouring, and — something SAT cannot do — counts all proper
    colourings. The node limit is part of the interface: hitting it on
    realistic conflict graphs is the scalability cliff that motivated the
    move to SAT (paper, Sect. 1). *)

type answer =
  | Colorable of Fpgasat_graph.Coloring.t
  | Uncolorable
  | Node_limit  (** The BDD exceeded [max_nodes] while being built. *)

val k_colorable : ?max_nodes:int -> Fpgasat_graph.Graph.t -> k:int -> answer
(** Default [max_nodes]: 2,000,000. *)

val count_colorings :
  ?max_nodes:int -> Fpgasat_graph.Graph.t -> k:int -> float option
(** Number of proper [k]-colourings, [None] on node-limit. Exact up to
    float precision. *)

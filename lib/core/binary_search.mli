(** Minimal channel width search.

    The paper's optimality argument: a detailed routing found at width [W]
    is optimal when width [W-1] is proven unroutable. This module brackets
    the minimal width between a maximum clique and the DSATUR upper bound
    ({!Width_bounds}), then binary-searches with SAT calls. *)

type search_result = {
  w_min : int;  (** Minimal width with a detailed routing. *)
  routing : Fpgasat_fpga.Detailed_route.t;  (** A routing at [w_min]. *)
  unsat_below : Flow.run option;
      (** The UNSAT run at [w_min - 1] proving optimality; [None] when
          [w_min] equals the maximum clique's size, which refutes
          [w_min - 1] without a SAT call. *)
  runs : Flow.run list;  (** Every SAT query made, in order. *)
}

val minimal_width :
  ?strategy:Strategy.t ->
  ?budget:Fpgasat_sat.Solver.budget ->
  Fpgasat_fpga.Global_route.t ->
  (search_result, string) result
(** [Error] only when the budget ran out before the answer was bracketed. *)

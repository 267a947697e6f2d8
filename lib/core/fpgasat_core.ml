(** End-to-end API of the reproduction.

    {!Strategy} combines an encoding with a symmetry heuristic and a solver
    preset; {!Flow} runs global routing → colouring → CNF → SAT → verified
    detailed routing (or unroutability proof); {!Width_bounds} brackets
    the minimal channel width between a clique and a colouring, and
    {!Binary_search} finds it with an optimality proof; {!Report} formats
    paper-style tables. Strategy portfolios and multi-cell experiment
    sweeps live one layer up, in [Fpgasat_engine] (they schedule runs of
    this flow over a bounded domain pool). *)

module Strategy = Strategy
module Flow = Flow
module Width_bounds = Width_bounds
module Binary_search = Binary_search
module Incremental_width = Incremental_width
module Report = Report

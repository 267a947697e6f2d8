(** SAT substrate for the FPGA-routing-encodings reproduction.

    The paper solved its CNF instances with siege_v4 and MiniSat. No external
    solver is available in this environment, so this library provides a
    from-scratch CDCL solver ({!Solver}) with two presets mirroring those two
    solvers, a reference DPLL solver ({!Dpll}) used as a cross-check oracle,
    CNF construction ({!Cnf}) and DIMACS I/O ({!Dimacs_cnf}), DRAT proof
    traces ({!Proof}) and an independent forward checker
    ({!Drat_check}). *)

module Lit = Lit
module Clause = Clause
module Watch = Watch
module Cnf = Cnf
module Dimacs_cnf = Dimacs_cnf
module Vec = Vec
module Heap = Heap
module Luby = Luby
module Event = Event
module Solver = Solver
module Dpll = Dpll
module Proof = Proof
module Drat_check = Drat_check
module Stats = Stats

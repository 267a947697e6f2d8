(* Proving unroutability — the capability that sets SAT-based detailed
   routing apart from one-net-at-a-time routers (paper, Sect. 1).

   This example takes the alu2 benchmark, determines its minimal width W,
   and then demonstrates the three artefacts of the paper's tool flow for
   the unroutable configuration at W - 1:

     1. the colouring conflict graph in DIMACS .col,
     2. the CNF under the winning encoding (ITE-linear-2+muldirect + s1),
     3. a DRAT refutation trace from the CDCL solver,

   and contrasts the SAT answer with the greedy DSATUR router, which can
   only report the width it happens to need, never that fewer tracks are
   impossible.

   Run with: dune exec examples/unroutability_proof.exe *)

module Sat = Fpgasat_sat
module G = Fpgasat_graph
module E = Fpgasat_encodings
module F = Fpgasat_fpga
module C = Fpgasat_core

let () =
  let spec = Option.get (F.Benchmarks.find "alu2") in
  let inst = F.Benchmarks.build spec in
  Format.printf "%a@." F.Benchmarks.pp_instance inst;

  let budget = Sat.Solver.time_budget 120. in
  let w =
    match C.Binary_search.minimal_width ~budget inst.F.Benchmarks.route with
    | Ok r -> r.C.Binary_search.w_min
    | Error m -> failwith m
  in
  Printf.printf "minimal routable width: W = %d\n\n" w;

  (* greedy baseline: DSATUR needs this many tracks and proves nothing *)
  let dsatur_width = G.Greedy.upper_bound inst.F.Benchmarks.graph in
  Printf.printf
    "DSATUR (one-net-at-a-time baseline) routes with %d tracks but cannot\n\
     decide whether %d tracks suffice.\n\n"
    dsatur_width (w - 1);

  (* artefact 1: the DIMACS .col conflict graph *)
  let col_file = Filename.temp_file "alu2" ".col" in
  G.Dimacs_col.write_file col_file
    ~comments:[ "alu2 conflict graph (2-pin subnets / shared segments)" ]
    inst.F.Benchmarks.graph;
  Printf.printf "conflict graph written to        %s\n" col_file;

  (* artefact 2: the CNF at the unroutable width *)
  let csp = F.Conflict_graph.csp inst.F.Benchmarks.route ~w:(w - 1) in
  let encoded =
    E.Csp_encode.encode ~symmetry:E.Symmetry.S1
      (match E.Encoding.of_name "ITE-linear-2+muldirect" with
      | Ok e -> e
      | Error m -> failwith m)
      csp
  in
  let cnf_file = Filename.temp_file "alu2" ".cnf" in
  Sat.Dimacs_cnf.write_file cnf_file encoded.E.Csp_encode.cnf;
  Format.printf "CNF (%a) written to %s@." Sat.Cnf.pp_stats encoded.E.Csp_encode.cnf
    cnf_file;

  (* artefact 3: the DRAT refutation *)
  let run =
    C.Flow.(
      submit
        (default_request
        |> with_strategy C.Strategy.best_single
        |> with_budget budget |> with_proof true))
      inst.F.Benchmarks.route ~width:(w - 1)
  in
  (match (run.C.Flow.outcome, run.C.Flow.proof) with
  | C.Flow.Unroutable, Some proof ->
      let drat_file = Filename.temp_file "alu2" ".drat" in
      let oc = open_out drat_file in
      Sat.Proof.output oc proof;
      close_out oc;
      Printf.printf "DRAT refutation (%d steps) in    %s\n"
        (Sat.Proof.num_steps proof) drat_file;
      Printf.printf
        "\nVERDICT: W = %d is UNROUTABLE (solve time %.3fs, %d conflicts),\n\
         so the routing found at W = %d is provably optimal.\n"
        (w - 1) run.C.Flow.timings.C.Flow.solving
        run.C.Flow.solver_stats.Sat.Stats.conflicts w
  | C.Flow.Routable _, _ -> print_endline "unexpected: routable below w_min!"
  | C.Flow.Timeout, _ -> print_endline "budget exhausted"
  | C.Flow.Memout, _ -> print_endline "memory budget exhausted"
  | C.Flow.Unroutable, None -> assert false);

  (* a clique of w subnets that pairwise share a segment refutes w - 1 on
     its own; a greedy clique can miss it, and not every refutation has a
     clique behind it *)
  let greedy = G.Clique.lower_bound inst.F.Benchmarks.graph in
  let maximum = List.length (G.Clique.maximum inst.F.Benchmarks.graph) in
  Printf.printf "\n(greedy clique: %d, maximum clique: %d — %s)\n" greedy
    maximum
    (if maximum >= w then "the maximum clique also refutes this width"
     else "the SAT proof goes beyond any clique")

(* Flow.submit, taken apart into the public steps it is made of, one span
   each, so a traced query shows which layer its time went to.

   This must stay answer- and work-identical to [Flow.submit]:
   [Solver.solve] is exactly [Solver.create] followed by [solve_with] with
   no assumptions, and the steps around it are Flow's own. The traced run
   checks it — every traced query's verdict and solver counters must equal
   the untraced run's. *)

module Sat = Fpgasat_sat
module E = Fpgasat_encodings
module F = Fpgasat_fpga
module C = Fpgasat_core

let mismatch fmt = Printf.ksprintf (fun m -> raise (C.Flow.Decode_mismatch m)) fmt

let submit sp (request : C.Flow.request) route ~width =
  let strategy = request.C.Flow.strategy in
  let span name f = Spans.timed sp name f in
  let graph, to_graph = span "fpga.conflict_graph" (fun () -> F.Conflict_graph.build route) in
  let (csp, encoded), to_cnf =
    span "encodings.encode" (fun () ->
        let csp = E.Csp.make graph ~k:width in
        (csp, E.Csp_encode.encode ?symmetry:strategy.C.Strategy.symmetry strategy.C.Strategy.encoding csp))
  in
  let cnf = encoded.E.Csp_encode.cnf in
  Spans.count sp "encodings.literals" (Sat.Cnf.num_lits cnf);
  let certify = request.C.Flow.certify in
  let proof =
    if certify || request.C.Flow.want_proof then Some (Sat.Proof.create ()) else None
  in
  let alloc0 = Gc.allocated_bytes () in
  let solver, load =
    span "sat.load" (fun () -> Sat.Solver.create ~config:strategy.C.Strategy.solver ?proof cnf)
  in
  let result, search =
    span "sat.search" (fun () -> Sat.Solver.solve_with ~budget:request.C.Flow.budget solver)
  in
  Spans.count sp "sat.words_allocated"
    (int_of_float ((Gc.allocated_bytes () -. alloc0) /. float_of_int (Sys.word_size / 8)));
  let stats = Sat.Solver.solver_stats solver in
  Spans.count sp "sat.propagations" stats.Sat.Stats.propagations;
  Spans.count sp "sat.conflicts" stats.Sat.Stats.conflicts;
  Spans.count sp "sat.decisions" stats.Sat.Stats.decisions;
  let outcome, certified =
    match result with
    | Sat.Solver.Q_sat model ->
        let coloring =
          Spans.span sp "encodings.decode" (fun () ->
              let coloring = E.Csp_encode.decode encoded model in
              if not (E.Csp.solution_ok csp coloring) then
                mismatch "decoded colouring is not proper";
              coloring)
        in
        let detailed =
          Spans.span sp "fpga.route_verify" (fun () ->
              match F.Detailed_route.of_coloring route ~width coloring with
              | Ok d -> d
              | Error v ->
                  mismatch "detailed routing rejected: %s"
                    (Format.asprintf "%a" F.Detailed_route.pp_violation v))
        in
        let certified =
          if certify then
            Some
              (Spans.span sp "sat.check_model" (fun () -> Sat.Solver.check_model cnf model)
              && Spans.span sp "fpga.route_verify" (fun () ->
                     Result.is_ok (F.Detailed_route.verify route ~width coloring)))
          else None
        in
        (C.Flow.Routable detailed, certified)
    | Sat.Solver.Q_unsat ->
        let certified =
          match (certify, proof) with
          | false, _ -> None
          | true, None -> Some false
          | true, Some p ->
              Spans.count sp "sat.proof_steps" (Sat.Proof.num_steps p);
              Some
                (Spans.span sp "sat.drat_check" (fun () ->
                     Result.is_ok (Sat.Drat_check.check cnf p)))
        in
        (C.Flow.Unroutable, certified)
    | Sat.Solver.Q_unknown -> (C.Flow.Timeout, None)
    | Sat.Solver.Q_memout -> (C.Flow.Memout, None)
  in
  {
    C.Flow.outcome;
    timings = { C.Flow.to_graph; to_cnf; solving = load +. search };
    width;
    strategy;
    cnf_vars = Sat.Cnf.num_vars cnf;
    cnf_clauses = Sat.Cnf.num_clauses cnf;
    solver_stats = stats;
    proof;
    certified;
    telemetry = None;
  }

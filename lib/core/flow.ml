module Sat = Fpgasat_sat
module Obs = Fpgasat_obs
module G = Fpgasat_graph
module E = Fpgasat_encodings
module F = Fpgasat_fpga

type timings = { to_graph : float; to_cnf : float; solving : float }

let total t = t.to_graph +. t.to_cnf +. t.solving

type outcome =
  | Routable of F.Detailed_route.t
  | Unroutable
  | Timeout
  | Memout

type run = {
  outcome : outcome;
  timings : timings;
  width : int;
  strategy : Strategy.t;
  cnf_vars : int;
  cnf_clauses : int;
  solver_stats : Sat.Stats.t;
  proof : Sat.Proof.t option;
  certified : bool option;
  telemetry : Obs.Telemetry.t option;
}

let outcome_name = function
  | Routable _ -> "routable"
  | Unroutable -> "unroutable"
  | Timeout -> "timeout"
  | Memout -> "memout"

let decisive = function
  | Routable _ | Unroutable -> true
  | Timeout | Memout -> false

exception Decode_mismatch of string

(* Wall clock, not [Sys.time]: the timing buckets feed run records that are
   compared across sweeps, and process CPU time is inflated ~jobs× by
   concurrent domains. *)
let timed f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. t0)

let decode decoder csp model =
  let coloring = decoder model in
  if not (E.Csp.solution_ok csp coloring) then
    raise (Decode_mismatch "decoded colouring is not proper");
  coloring

let metered ~telemetry f =
  if not telemetry then (f (), None)
  else
    let alloc0 = Gc.allocated_bytes () in
    let result = f () in
    let words =
      (Gc.allocated_bytes () -. alloc0) /. float_of_int (Sys.word_size / 8)
    in
    (result, Some (int_of_float words))

type answer =
  [ `Colorable of G.Coloring.t | `Uncolorable | `Timeout | `Memout ]

type evidence =
  [ `Solved of Sat.Cnf.t * Sat.Solver.result | `Unsolved | `Clique of int array ]

let finish ?certify ?proof ?words_allocated ~strategy
    ~cnf_size:(cnf_vars, cnf_clauses) ~timings ~stats route ~width
    (answer : answer) =
  let outcome =
    match answer with
    | `Colorable coloring -> (
        match F.Detailed_route.of_coloring route ~width coloring with
        | Ok detailed -> Routable detailed
        | Error violation ->
            raise
              (Decode_mismatch
                 (Format.asprintf "detailed routing rejected: %a"
                    F.Detailed_route.pp_violation violation)))
    | `Uncolorable -> Unroutable
    | `Timeout -> Timeout
    | `Memout -> Memout
  in
  let certified =
    let verified coloring =
      Result.is_ok (F.Detailed_route.verify route ~width coloring)
    in
    match (certify, answer) with
    | Some (`Solved (cnf, Sat.Solver.Sat model)), `Colorable coloring ->
        Some (Sat.Solver.check_model cnf model && verified coloring)
    | Some `Unsolved, `Colorable coloring -> Some (verified coloring)
    | Some (`Solved (cnf, _)), `Uncolorable -> (
        match proof with
        | Some p -> Some (Result.is_ok (Sat.Drat_check.check cnf p))
        | None -> Some false)
    | Some (`Clique subnets), `Uncolorable ->
        Some (F.Detailed_route.clique_refutes route ~width subnets)
    | _ -> None
  in
  let telemetry =
    Option.map
      (fun words_allocated ->
        Obs.Telemetry.of_stats ~solving:timings.solving ~words_allocated stats)
      words_allocated
  in
  {
    outcome;
    timings;
    width;
    strategy;
    cnf_vars;
    cnf_clauses;
    solver_stats = stats;
    proof;
    certified;
    telemetry;
  }

type request = {
  strategy : Strategy.t;
  budget : Sat.Solver.budget;
  want_proof : bool;
  certify : bool;
  telemetry : bool;
  trace : Obs.Trace.t option;
}

let default_request =
  {
    strategy = Strategy.best_single;
    budget = Sat.Solver.no_budget;
    want_proof = false;
    certify = false;
    telemetry = false;
    trace = None;
  }

let with_strategy strategy r = { r with strategy }
let with_budget budget r = { r with budget }
let with_proof want_proof r = { r with want_proof }
let with_certify certify r = { r with certify }
let with_telemetry telemetry r = { r with telemetry }
let with_trace trace r = { r with trace = Some trace }

let submit
    { strategy; budget; want_proof; certify; telemetry; trace } route
    ~width =
  if width < 1 then invalid_arg "Flow.submit: width < 1";
  (* an attached trace takes over the budget's event hook: the run's
     lifecycle is exactly what the profile is for *)
  let budget =
    match trace with
    | None -> budget
    | Some tr -> Sat.Solver.with_event_hook (Obs.Trace.sink tr) budget
  in
  let csp, to_graph =
    timed (fun () -> E.Csp.make (F.Conflict_graph.build route) ~k:width)
  in
  let proof =
    if want_proof || certify then Some (Sat.Proof.create ()) else None
  in
  Obs.Trace.record_opt trace Obs.Trace.Solve_begin width 0;
  (* telemetry spans encode, solve and decode *)
  let (encoded, result, answer, to_cnf, stats, solving), words_allocated =
    metered ~telemetry (fun () ->
        let encoded, to_cnf =
          timed (fun () ->
              E.Csp_encode.encode ?symmetry:strategy.Strategy.symmetry
                strategy.Strategy.encoding csp)
        in
        let (result, stats), solving =
          timed (fun () ->
              Sat.Solver.solve ~config:strategy.Strategy.solver ~budget ?proof
                encoded.E.Csp_encode.cnf)
        in
        let answer =
          match result with
          | Sat.Solver.Sat model ->
              `Colorable (decode (E.Csp_encode.decode encoded) csp model)
          | Sat.Solver.Unsat -> `Uncolorable
          | Sat.Solver.Unknown -> `Timeout
          | Sat.Solver.Memout -> `Memout
        in
        (encoded, result, answer, to_cnf, stats, solving))
  in
  let cnf = encoded.E.Csp_encode.cnf in
  let run =
    finish
      ?certify:(if certify then Some (`Solved (cnf, result)) else None)
      ?proof ?words_allocated ~strategy
      ~cnf_size:(Sat.Cnf.num_vars cnf, Sat.Cnf.num_clauses cnf)
      ~timings:{ to_graph; to_cnf; solving } ~stats route ~width answer
  in
  Obs.Trace.record_opt trace Obs.Trace.Solve_end width
    (if decisive run.outcome then 1 else 0);
  run

(* Differential certification tests: every registry encoding on random
   small routes, cross-checked three ways — the CDCL solver (whose UNSAT
   proofs must pass Drat_check and whose models must pass
   Solver.check_model + Detailed_route.verify), the independent Dpll
   solver, and Exact_coloring's exhaustive search. *)

module Sat = Fpgasat_sat
module G = Fpgasat_graph
module E = Fpgasat_encodings
module F = Fpgasat_fpga
module C = Fpgasat_core
module Flow = C.Flow
module Strategy = C.Strategy
module Drat = Sat.Drat_check

let random_route seed =
  let arch = F.Arch.create 4 in
  let rng = F.Rng.create seed in
  let nl =
    F.Netlist.random ~rng ~arch ~num_nets:(6 + (seed mod 7)) ~max_fanout:2
      ~locality:2
  in
  F.Global_router.route arch nl

(* ground truth by exhaustion, plus a second solver's opinion *)
let exact_answer graph ~width = G.Exact_coloring.k_colorable graph ~k:width

let dpll_answer cnf = Sat.Dpll.solve ~max_decisions:2_000_000 cnf

let encode strategy graph ~width =
  let csp = E.Csp.make graph ~k:width in
  E.Csp_encode.encode ?symmetry:strategy.Strategy.symmetry
    strategy.Strategy.encoding csp

(* One cell of the differential harness: solve [route] at [width] under
   [strategy] with certification on, then cross-check the verdict against
   Dpll and Exact_coloring and re-derive the certificate by hand. *)
let check_cell ~route ~graph ~strategy ~width =
  let ctx = Printf.sprintf "%s w=%d" (Strategy.name strategy) width in
  let run =
    Flow.(
      submit (default_request |> with_strategy strategy |> with_certify true))
      route ~width
  in
  let enc = encode strategy graph ~width in
  (match run.Flow.outcome with
  | Flow.Timeout | Flow.Memout -> ()
  | Flow.Routable d ->
      Alcotest.(check (option bool)) (ctx ^ ": routable certified") (Some true)
        run.Flow.certified;
      (match F.Detailed_route.verify route ~width d.F.Detailed_route.tracks with
      | Ok () -> ()
      | Error v ->
          Alcotest.fail
            (Format.asprintf "%s: bad routing: %a" ctx
               F.Detailed_route.pp_violation v));
      (* the independent solvers must agree the instance is satisfiable *)
      (match dpll_answer enc.E.Csp_encode.cnf with
      | Sat.Dpll.Unsat -> Alcotest.fail (ctx ^ ": dpll disagrees (unsat)")
      | Sat.Dpll.Sat m ->
          Alcotest.(check bool) (ctx ^ ": dpll model satisfies cnf") true
            (Sat.Solver.check_model enc.E.Csp_encode.cnf m)
      | Sat.Dpll.Unknown -> ());
      (match exact_answer graph ~width with
      | G.Exact_coloring.Uncolorable ->
          Alcotest.fail (ctx ^ ": exact colouring disagrees (uncolorable)")
      | G.Exact_coloring.Colorable _ | G.Exact_coloring.Exhausted -> ())
  | Flow.Unroutable -> (
      Alcotest.(check (option bool)) (ctx ^ ": unroutable certified")
        (Some true) run.Flow.certified;
      (* re-derive an UNSAT proof and feed it to the new checker *)
      let proof = Sat.Proof.create () in
      (match
         Sat.Solver.solve ~config:strategy.Strategy.solver ~proof
           enc.E.Csp_encode.cnf
      with
      | Sat.Solver.Unsat, _ -> (
          match Drat.check enc.E.Csp_encode.cnf proof with
          | Ok _ -> ()
          | Error e ->
              Alcotest.fail
                (Format.asprintf "%s: proof rejected: %a" ctx Drat.pp_error e))
      | (Sat.Solver.Sat _ | Sat.Solver.Unknown | Sat.Solver.Memout), _ ->
          Alcotest.fail (ctx ^ ": re-solve disagrees with unroutable"));
      (match dpll_answer enc.E.Csp_encode.cnf with
      | Sat.Dpll.Sat _ -> Alcotest.fail (ctx ^ ": dpll disagrees (sat)")
      | Sat.Dpll.Unsat | Sat.Dpll.Unknown -> ());
      match exact_answer graph ~width with
      | G.Exact_coloring.Colorable _ ->
          Alcotest.fail (ctx ^ ": exact colouring disagrees (colorable)")
      | G.Exact_coloring.Uncolorable | G.Exact_coloring.Exhausted -> ()));
  run.Flow.outcome

(* All fifteen registry encodings on one fixed route, at the greedy upper
   bound (satisfiable) and one below (usually unsatisfiable). *)
let test_registry_differential () =
  let route = random_route 3 in
  let graph = F.Conflict_graph.build route in
  let ub = G.Greedy.upper_bound graph in
  let widths = List.sort_uniq compare [ max 1 (ub - 1); ub ] in
  let decisive = ref 0 in
  List.iter
    (fun encoding ->
      let strategy = Strategy.make encoding in
      List.iter
        (fun width ->
          match check_cell ~route ~graph ~strategy ~width with
          | Flow.Routable _ | Flow.Unroutable -> incr decisive
          | Flow.Timeout | Flow.Memout -> ())
        widths)
    E.Registry.all;
  Alcotest.(check bool) "most cells decisive" true (!decisive > 20)

(* QCheck: random ≤12-net routes under a rotating registry strategy — every
   decisive answer certifies and the three deciders never contradict. *)
let prop_random_routes_certify =
  QCheck2.Test.make ~count:15 ~name:"random routes certify under registry"
    QCheck2.Gen.(pair (int_range 0 1000) (int_range 0 1000))
    (fun (seed, pick) ->
      let route = random_route seed in
      let graph = F.Conflict_graph.build route in
      let ub = G.Greedy.upper_bound graph in
      let encoding =
        List.nth E.Registry.all (pick mod List.length E.Registry.all)
      in
      let strategy = Strategy.make encoding in
      List.iter
        (fun width -> ignore (check_cell ~route ~graph ~strategy ~width))
        (List.sort_uniq compare [ max 1 (ub - 1); ub ]);
      true)

(* Differential emission fuzz: flat and +defs emission of every registry
   encoding must agree on SAT/UNSAT and on w_min, and --certify must hold
   for both — DRAT proofs range over the aux variables, the model check
   decodes from the slot variables and ignores them. *)
let test_defs_vs_flat_differential () =
  let route = random_route 11 in
  let graph = F.Conflict_graph.build route in
  let ub = G.Greedy.upper_bound graph in
  let widths = List.sort_uniq compare [ max 1 (ub - 1); ub ] in
  List.iter
    (fun encoding ->
      let flat = Strategy.make encoding in
      let defs = Strategy.with_defs flat in
      List.iter
        (fun width ->
          let of_outcome = function
            | Flow.Routable _ -> Some true
            | Flow.Unroutable -> Some false
            | Flow.Timeout | Flow.Memout -> None
          in
          let a = check_cell ~route ~graph ~strategy:flat ~width in
          let b = check_cell ~route ~graph ~strategy:defs ~width in
          match (of_outcome a, of_outcome b) with
          | Some x, Some y ->
              Alcotest.(check bool)
                (Printf.sprintf "%s w=%d: emissions agree"
                   (E.Encoding.name encoding) width)
                true (x = y)
          | _ -> ())
        widths)
    E.Registry.all

(* w_min through the incremental-width ladder, whose selector clauses ride
   on the +defs definitions when present. *)
let test_defs_vs_flat_w_min () =
  let route = random_route 5 in
  let graph = F.Conflict_graph.build route in
  List.iter
    (fun encoding ->
      let w_min strategy =
        match C.Incremental_width.minimal_colors ~strategy graph with
        | Ok r -> r.C.Incremental_width.w_min
        | Error m ->
            Alcotest.fail
              (Printf.sprintf "%s: incremental search failed: %s"
                 (Strategy.name strategy) m)
      in
      let flat = Strategy.make encoding in
      Alcotest.(check int)
        (Printf.sprintf "%s: w_min matches across emissions"
           (E.Encoding.name encoding))
        (w_min flat)
        (w_min (Strategy.with_defs flat)))
    E.Registry.all

let prop_defs_random_routes_certify =
  QCheck2.Test.make ~count:10
    ~name:"random routes certify under +defs registry strategies"
    QCheck2.Gen.(pair (int_range 0 1000) (int_range 0 1000))
    (fun (seed, pick) ->
      let route = random_route seed in
      let graph = F.Conflict_graph.build route in
      let ub = G.Greedy.upper_bound graph in
      let encoding =
        List.nth E.Registry.all (pick mod List.length E.Registry.all)
      in
      let strategy = Strategy.with_defs (Strategy.make encoding) in
      List.iter
        (fun width -> ignore (check_cell ~route ~graph ~strategy ~width))
        (List.sort_uniq compare [ max 1 (ub - 1); ub ]);
      true)

(* Symmetry breaking must not break certification: s1 prunes models, so the
   certificate path has to hold with it enabled too. *)
let test_certify_with_symmetry () =
  let route = random_route 7 in
  let graph = F.Conflict_graph.build route in
  let ub = G.Greedy.upper_bound graph in
  List.iter
    (fun symmetry ->
      let strategy =
        Strategy.make ~symmetry (List.hd E.Registry.previously_used)
      in
      ignore (check_cell ~route ~graph ~strategy ~width:(max 1 (ub - 1))))
    [ E.Symmetry.B1; E.Symmetry.S1 ]

(* A fixed default seed keeps the suite's duration steady: some seeds draw
   routes that take minutes to certify. QCHECK_SEED still overrides it. *)
let seed =
  match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
  | Some s -> s
  | None -> 497661322

let qtests =
  List.map
    (fun t ->
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) t)
    [ prop_random_routes_certify; prop_defs_random_routes_certify ]

let () =
  Alcotest.run "certify"
    [
      ( "differential",
        [
          Alcotest.test_case "registry encodings agree and certify" `Slow
            test_registry_differential;
          Alcotest.test_case "symmetry-broken runs certify" `Quick
            test_certify_with_symmetry;
        ] );
      ( "emission",
        [
          Alcotest.test_case "flat and +defs emissions agree and certify" `Slow
            test_defs_vs_flat_differential;
          Alcotest.test_case "w_min matches across emissions" `Slow
            test_defs_vs_flat_w_min;
        ] );
      ("properties", qtests);
    ]

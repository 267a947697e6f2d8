(* Integration tests: the complete pipeline on real benchmark instances —
   generate, globally route, reduce, export interchange formats, solve with
   several strategies, decode, verify against the architecture, and check
   cross-strategy consistency. *)

module Sat = Fpgasat_sat
module G = Fpgasat_graph
module E = Fpgasat_encodings
module F = Fpgasat_fpga
module C = Fpgasat_core
module Flow = C.Flow

let strategy name =
  match C.Strategy.of_name name with Ok s -> s | Error m -> Alcotest.fail m

(* use the two smallest benchmarks to keep the suite quick *)
let alu2 = F.Benchmarks.build (Option.get (F.Benchmarks.find "alu2"))
let too_large = F.Benchmarks.build (Option.get (F.Benchmarks.find "too_large"))

(* larger benchmarks, for the exact-work and allocation pins only *)
let alu4 = F.Benchmarks.build (Option.get (F.Benchmarks.find "alu4"))
let c880 = F.Benchmarks.build (Option.get (F.Benchmarks.find "C880"))
let vda = F.Benchmarks.build (Option.get (F.Benchmarks.find "vda"))

let budget = Sat.Solver.time_budget 60.

let test_benchmark_instances_consistent () =
  List.iter
    (fun inst ->
      let n = F.Netlist.num_subnets inst.F.Benchmarks.netlist in
      Alcotest.(check int) "graph vertices = subnets" n
        (G.Graph.num_vertices inst.F.Benchmarks.graph);
      Alcotest.(check bool) "congested" true (inst.F.Benchmarks.max_congestion >= 2))
    [ alu2; too_large ]

let test_full_flow_on_alu2 () =
  match C.Binary_search.minimal_width ~budget alu2.F.Benchmarks.route with
  | Error m -> Alcotest.fail m
  | Ok r ->
      let w = r.C.Binary_search.w_min in
      Alcotest.(check bool) "w_min >= congestion" true
        (w >= alu2.F.Benchmarks.max_congestion);
      (* the detailed routing is verified against the FPGA model *)
      let d = r.C.Binary_search.routing in
      (match
         F.Detailed_route.verify alu2.F.Benchmarks.route ~width:w
           d.F.Detailed_route.tracks
       with
      | Ok () -> ()
      | Error v ->
          Alcotest.fail
            (Format.asprintf "invalid routing: %a" F.Detailed_route.pp_violation v));
      (* and the width below is refuted by an independent strategy *)
      let run =
        Flow.(
          submit
            (default_request
            |> with_strategy (strategy "log@minisat")
            |> with_budget budget))
          alu2.F.Benchmarks.route ~width:(w - 1)
      in
      (match run.Flow.outcome with
      | Flow.Unroutable -> ()
      | Flow.Routable _ -> Alcotest.fail "log found a routing below w_min"
      | Flow.Timeout | Flow.Memout -> Alcotest.fail "log timed out on alu2")

let test_unsat_instance_has_drat_trace () =
  match C.Binary_search.minimal_width ~budget too_large.F.Benchmarks.route with
  | Error m -> Alcotest.fail m
  | Ok r ->
      let w = r.C.Binary_search.w_min in
      if w > G.Clique.lower_bound too_large.F.Benchmarks.graph then begin
        let run =
          Flow.(
            submit (default_request |> with_proof true |> with_budget budget))
            too_large.F.Benchmarks.route ~width:(w - 1)
        in
        match (run.Flow.outcome, run.Flow.proof) with
        | Flow.Unroutable, Some proof ->
            Alcotest.(check bool) "refutation trace complete" true
              (Sat.Proof.ends_with_empty proof)
        | _ -> Alcotest.fail "expected a proved refutation"
      end

let test_interchange_formats () =
  (* the paper's tool flow materialises the colouring problem as DIMACS .col
     and the SAT problem as DIMACS cnf; both must round-trip on a real
     instance *)
  let graph = alu2.F.Benchmarks.graph in
  let col = G.Dimacs_col.to_string ~comments:[ "alu2 conflict graph" ] graph in
  let graph' = G.Dimacs_col.parse_string col in
  Alcotest.(check int) "col vertices" (G.Graph.num_vertices graph)
    (G.Graph.num_vertices graph');
  Alcotest.(check int) "col edges" (G.Graph.num_edges graph)
    (G.Graph.num_edges graph');
  let csp = E.Csp.make graph' ~k:alu2.F.Benchmarks.max_congestion in
  let encoded = E.Csp_encode.encode (List.hd E.Registry.new_encodings) csp in
  let cnf_text = Sat.Dimacs_cnf.to_string encoded.E.Csp_encode.cnf in
  let cnf' = Sat.Dimacs_cnf.parse_string cnf_text in
  Alcotest.(check int) "cnf clauses"
    (Sat.Cnf.num_clauses encoded.E.Csp_encode.cnf)
    (Sat.Cnf.num_clauses cnf');
  (* solving the re-parsed CNF gives the same verdict *)
  let v1 = fst (Sat.Solver.solve ~budget encoded.E.Csp_encode.cnf) in
  let v2 = fst (Sat.Solver.solve ~budget cnf') in
  let tag = function
    | Sat.Solver.Sat _ -> "sat"
    | Sat.Solver.Unsat -> "unsat"
    | Sat.Solver.Unknown | Sat.Solver.Memout -> "unknown"
  in
  Alcotest.(check string) "same verdict" (tag v1) (tag v2)

let test_strategies_consistent_on_alu2 () =
  (* several distinct strategies must agree at w_min and w_min - 1 *)
  match C.Binary_search.minimal_width ~budget alu2.F.Benchmarks.route with
  | Error m -> Alcotest.fail m
  | Ok r ->
      let w = r.C.Binary_search.w_min in
      let strategies =
        [
          "muldirect/b1"; "ITE-log/s1"; "direct-3+muldirect/s1@minisat";
          "ITE-linear-2+direct/b1";
        ]
      in
      List.iter
        (fun sname ->
          let sat_run =
            Flow.(
              submit
                (default_request
                |> with_strategy (strategy sname)
                |> with_budget budget))
              alu2.F.Benchmarks.route ~width:w
          in
          (match sat_run.Flow.outcome with
          | Flow.Routable _ -> ()
          | Flow.Unroutable -> Alcotest.fail (sname ^ ": w_min unroutable?")
          | Flow.Timeout | Flow.Memout ->
              Alcotest.fail (sname ^ ": timeout at w_min"));
          let unsat_run =
            Flow.(
              submit
                (default_request
                |> with_strategy (strategy sname)
                |> with_budget budget))
              alu2.F.Benchmarks.route ~width:(w - 1)
          in
          match unsat_run.Flow.outcome with
          | Flow.Unroutable -> ()
          | Flow.Routable _ -> Alcotest.fail (sname ^ ": found impossible routing")
          | Flow.Timeout | Flow.Memout ->
              Alcotest.fail (sname ^ ": timeout below w_min"))
        strategies

let test_portfolio_on_benchmark () =
  let module P = Fpgasat_engine.Portfolio in
  let width = alu2.F.Benchmarks.max_congestion in
  let p =
    P.run ~budget C.Strategy.paper_portfolio_3 alu2.F.Benchmarks.route ~width
  in
  match p.P.winner with
  | Some w -> (
      match w.P.run.Flow.outcome with
      | Flow.Routable _ -> ()
      | Flow.Unroutable | Flow.Timeout | Flow.Memout ->
          Alcotest.fail "max congestion must be routable")
  | None -> Alcotest.fail "portfolio found no answer"

let test_drat_check_validates_flow_proof () =
  (* independently re-derive the solver's unroutability proof for alu2 via
     reverse unit propagation — the strongest end-to-end correctness check
     in the repository *)
  match C.Binary_search.minimal_width ~budget alu2.F.Benchmarks.route with
  | Error m -> Alcotest.fail m
  | Ok r ->
      let w = r.C.Binary_search.w_min in
      let graph = alu2.F.Benchmarks.graph in
      let csp = E.Csp.make graph ~k:(w - 1) in
      let encoded =
        E.Csp_encode.encode ~symmetry:E.Symmetry.S1
          (match E.Encoding.of_name "ITE-linear-2+muldirect" with
          | Ok e -> e
          | Error m -> Alcotest.fail m)
          csp
      in
      let proof = Sat.Proof.create () in
      (match Sat.Solver.solve ~proof encoded.E.Csp_encode.cnf with
      | Sat.Solver.Unsat, _ -> ()
      | _ -> Alcotest.fail "expected UNSAT");
      (match Sat.Drat_check.check encoded.E.Csp_encode.cnf proof with
      | Ok _ -> ()
      | Error e ->
          Alcotest.fail (Format.asprintf "%a" Sat.Drat_check.pp_error e))

let test_incremental_on_benchmark () =
  match
    ( C.Binary_search.minimal_width ~budget alu2.F.Benchmarks.route,
      C.Incremental_width.minimal_colors ~budget alu2.F.Benchmarks.graph )
  with
  | Ok bs, Ok inc ->
      Alcotest.(check int) "agree on w_min" bs.C.Binary_search.w_min
        inc.C.Incremental_width.w_min
  | Error m, _ | _, Error m -> Alcotest.fail m

let test_exact_coloring_agrees_on_benchmark () =
  (* the CSP-search baseline agrees with the SAT flow on alu2's w_min *)
  match C.Binary_search.minimal_width ~budget alu2.F.Benchmarks.route with
  | Error m -> Alcotest.fail m
  | Ok r -> (
      let w = r.C.Binary_search.w_min in
      match G.Exact_coloring.k_colorable alu2.F.Benchmarks.graph ~k:w with
      | G.Exact_coloring.Colorable c ->
          Alcotest.(check bool) "proper" true
            (G.Coloring.is_proper alu2.F.Benchmarks.graph ~k:w c)
      | G.Exact_coloring.Uncolorable -> Alcotest.fail "B&B contradicts SAT"
      | G.Exact_coloring.Exhausted -> ()) (* acceptable: budgeted *)

let test_serial_roundtrip_preserves_verdict () =
  (* write the alu2 netlist + routes to disk, read them back, and check the
     flow gives the same verdict at the same width *)
  let nets_file = Filename.temp_file "alu2" ".nets" in
  let routes_file = Filename.temp_file "alu2" ".routes" in
  F.Serial.write_netlist nets_file alu2.F.Benchmarks.arch alu2.F.Benchmarks.netlist;
  F.Serial.write_routes routes_file alu2.F.Benchmarks.route;
  let _, netlist = F.Serial.read_netlist nets_file in
  let route = F.Serial.read_routes ~netlist routes_file in
  Sys.remove nets_file;
  Sys.remove routes_file;
  let w = alu2.F.Benchmarks.max_congestion in
  let request = Flow.(default_request |> with_budget budget) in
  let direct = Flow.submit request alu2.F.Benchmarks.route ~width:w in
  let via_files = Flow.submit request route ~width:w in
  let tag r =
    match r.Flow.outcome with
    | Flow.Routable _ -> "routable"
    | Flow.Unroutable -> "unroutable"
    | Flow.Timeout | Flow.Memout -> "timeout"
  in
  Alcotest.(check string) "same verdict" (tag direct) (tag via_files)

let test_greedy_vs_sat_optimality () =
  (* DSATUR (the one-net-at-a-time style baseline) may need more tracks than
     the SAT flow's proven optimum — never fewer *)
  match C.Binary_search.minimal_width ~budget alu2.F.Benchmarks.route with
  | Error m -> Alcotest.fail m
  | Ok r ->
      let dsatur_width = G.Greedy.upper_bound alu2.F.Benchmarks.graph in
      Alcotest.(check bool) "sat optimum <= dsatur" true
        (r.C.Binary_search.w_min <= dsatur_width)

(* The solver is deterministic for a fixed CNF, so its work counters are
   exact: they move only when the search changes or the order in which
   clauses and watches reach it does. Pinned on paper-shaped CNFs: alu2
   one track below its minimum width of 6 (UNSAT, conflict-heavy), a
   generated routable instance at the gen-routable benchmark's width (SAT,
   load-dominated), and three runs long enough to cross the parts of the
   search the first two never reach: too_large W=6 (learnt-database
   reduction), vda W=10 (an inprocessing round) and alu4's incremental
   ladder queried at widths 10, 9 and 8 (an assumption ladder, reductions
   and inprocessing on one persistent solver). On those three the learnt
   literals, deleted clauses and LBD histogram pin conflict analysis's
   output and reduction's choices as well. The DRAT text of a Table 2
   refutation on wide clauses (C880 W=8 under ITE-log/s1) pins every
   learnt clause and deletion byte for byte. *)
let encode name graph ~k =
  let s = strategy name in
  let encoded =
    E.Csp_encode.encode ?symmetry:s.C.Strategy.symmetry s.C.Strategy.encoding
      (E.Csp.make graph ~k)
  in
  (s.C.Strategy.solver, encoded.E.Csp_encode.cnf)

let solve_stats name graph ~k =
  let config, cnf = encode name graph ~k in
  snd (Sat.Solver.solve ~config cnf)

let work (stats : Sat.Stats.t) =
  Sat.Stats.(stats.decisions, stats.propagations, stats.conflicts)

let learning (stats : Sat.Stats.t) =
  Sat.Stats.
    (stats.learnt_literals, stats.deleted_clauses, Array.to_list stats.lbd_hist)

let test_exact_work_counters () =
  let counters = Alcotest.(triple int int int) in
  let learnt = Alcotest.(triple int int (list int)) in
  Alcotest.check counters "alu2 W=5 ITE-linear-2+muldirect/s1@siege" (924, 3170, 262)
    (work (solve_stats "ITE-linear-2+muldirect/s1@siege" alu2.F.Benchmarks.graph ~k:5));
  let params = { F.Generator.default_params with grid = 16; nets = 400; seed = 11 } in
  let inst = F.Generator.build params F.Generator.Routable in
  Alcotest.check counters
    (F.Generator.name params F.Generator.Routable ^ " direct/s1@minisat")
    (4293, 7344, 0)
    (work
       (solve_stats "direct/s1@minisat" inst.F.Generator.graph
          ~k:(inst.F.Generator.dsatur_bound + 2)));
  let name = "too_large W=6 muldirect-3+muldirect/s1@siege" in
  let stats =
    solve_stats "muldirect-3+muldirect/s1@siege" too_large.F.Benchmarks.graph ~k:6
  in
  Alcotest.check counters name (4965, 28248, 1638) (work stats);
  Alcotest.check learnt name
    (11290, 650, [ 0; 10; 56; 185; 376; 438; 308; 134; 74; 34; 9; 8; 4; 1; 0; 0 ])
    (learning stats);
  let name = "vda W=10 ITE-linear-2+muldirect/s1@siege" in
  let stats = solve_stats "ITE-linear-2+muldirect/s1@siege" vda.F.Benchmarks.graph ~k:10 in
  Alcotest.check counters name (143937, 327694, 9384) (work stats);
  Alcotest.check learnt name
    ( 92344,
      0,
      [ 0; 16; 161; 294; 603; 987; 1263; 1522; 1489; 1106; 744; 487; 257; 132; 92; 230 ]
    )
    (learning stats);
  Alcotest.(check (pair int int))
    (name ^ ": inprocessing rounds, strengthened") (1, 12)
    Sat.Stats.(stats.inprocess_rounds, stats.inprocess_strengthened);
  (* the DRAT file [route C880 -w 8 -s ITE-log/s1@siege --proof] writes *)
  let name = "C880 W=8 ITE-log/s1@siege DRAT steps, bytes, MD5" in
  let run =
    Flow.submit
      Flow.(
        default_request
        |> with_strategy (strategy "ITE-log/s1@siege")
        |> with_proof true)
      c880.F.Benchmarks.route ~width:8
  in
  (match run.Flow.proof with
  | None -> Alcotest.fail (name ^ ": no proof")
  | Some proof ->
      let path = Filename.temp_file "fpgasat-c880" ".drat" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Out_channel.with_open_bin path (fun oc -> Sat.Proof.output oc proof);
          let text = In_channel.with_open_bin path In_channel.input_all in
          Alcotest.(check (triple int int string)) name
            (11069, 481707, "3f5e147f9f43473227ae7f0cfdff43a8")
            ( Sat.Proof.num_steps proof,
              String.length text,
              Digest.to_hex (Digest.string text) )));
  (* the walk alu4's min-width made before the clique bound (9) ended it
     at w_min: widths 10 and 9 colourable, then 8 refuted, on one
     persistent solver *)
  let s = strategy "ITE-linear-2+muldirect/s1@siege" in
  let name = "alu4 ladder at 10, 9, 8 ITE-linear-2+muldirect/s1@siege" in
  let ladder =
    C.Incremental_width.prepare ~strategy:s alu4.F.Benchmarks.graph
  in
  let verdicts =
    List.map
      (fun width ->
        match C.Incremental_width.query ladder ~width with
        | `Colorable _ -> "colourable"
        | `Uncolorable -> "uncolourable"
        | `Timeout | `Memout -> "undecided")
      [ 10; 9; 8 ]
  in
  Alcotest.(check (list string)) (name ^ ": verdicts")
    [ "colourable"; "colourable"; "uncolourable" ]
    verdicts;
  let stats = C.Incremental_width.stats ladder in
  Alcotest.check counters name (91366, 261688, 9825) (work stats);
  Alcotest.check learnt name
    ( 94002,
      4534,
      [ 0; 5; 104; 194; 558; 1103; 1594; 1831; 1630; 1039; 715; 414; 235; 149; 86; 168 ]
    )
    (learning stats);
  let name = "alu4 incremental min-width ITE-linear-2+muldirect/s1@siege" in
  match
    C.Incremental_width.minimal_colors ~strategy:s alu4.F.Benchmarks.graph
  with
  | Error m -> Alcotest.fail m
  | Ok r ->
      Alcotest.(check (pair int int)) (name ^ ": w_min and queries") (9, 2)
        (r.C.Incremental_width.w_min, r.C.Incremental_width.queries);
      Alcotest.(check int) (name ^ ": conflicts") 2523
        r.C.Incremental_width.stats.Sat.Stats.conflicts

(* Conflict analysis, decisions and backtracking build no lists, closures,
   options or sets: analysis works in buffers sized once and the decision
   heap is a plain int array. What the search still allocates is mostly
   amortised over many conflicts (learnt-database reduction, inprocessing)
   or a few words each (boxed activities, the RNG's state). Measured
   around [solve_with] alone (the solver is built first) on a
   Table-2-shaped refutation of 7,663 conflicts, the bound leaves about 2x
   headroom; a per-conflict list, closure or functor application in the
   loop would exceed it. *)
let test_search_allocation_per_conflict () =
  let config, cnf = encode "ITE-log/s1@siege" c880.F.Benchmarks.graph ~k:8 in
  let solver = Sat.Solver.create ~config cnf in
  let before = Gc.minor_words () in
  let result = Sat.Solver.solve_with solver in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "C880 W=8 is unroutable" true (result = Sat.Solver.Q_unsat);
  let conflicts = (Sat.Solver.solver_stats solver).Sat.Stats.conflicts in
  let per_conflict = words /. float_of_int conflicts in
  if per_conflict > 400. then
    Alcotest.failf "%.0f minor words per conflict over %d conflicts (bound 400)"
      per_conflict conflicts

let () =
  Alcotest.run "integration"
    [
      ( "pipeline",
        [
          Alcotest.test_case "instances consistent" `Quick
            test_benchmark_instances_consistent;
          Alcotest.test_case "full flow on alu2" `Quick test_full_flow_on_alu2;
          Alcotest.test_case "drat trace on refutation" `Quick
            test_unsat_instance_has_drat_trace;
          Alcotest.test_case "interchange formats" `Quick test_interchange_formats;
          Alcotest.test_case "strategies consistent" `Slow
            test_strategies_consistent_on_alu2;
          Alcotest.test_case "portfolio" `Quick test_portfolio_on_benchmark;
          Alcotest.test_case "greedy vs sat optimality" `Quick
            test_greedy_vs_sat_optimality;
          Alcotest.test_case "drat-check of a flow proof" `Quick
            test_drat_check_validates_flow_proof;
          Alcotest.test_case "incremental on benchmark" `Quick
            test_incremental_on_benchmark;
          Alcotest.test_case "exact coloring agrees" `Quick
            test_exact_coloring_agrees_on_benchmark;
          Alcotest.test_case "serial roundtrip verdict" `Quick
            test_serial_roundtrip_preserves_verdict;
          Alcotest.test_case "exact work counters" `Quick test_exact_work_counters;
          Alcotest.test_case "search allocation per conflict" `Quick
            test_search_allocation_per_conflict;
        ] );
    ]

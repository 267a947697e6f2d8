(* Tests for the core flow: strategies, the end-to-end Flow.submit pipeline,
   minimal-width binary search, the incremental-width ladder, and report
   formatting. *)

module Sat = Fpgasat_sat
module G = Fpgasat_graph
module E = Fpgasat_encodings
module F = Fpgasat_fpga
module C = Fpgasat_core
module Strategy = C.Strategy
module Flow = C.Flow

let strategy name =
  match Strategy.of_name name with Ok s -> s | Error m -> Alcotest.fail m

(* a small instance shared by several tests *)
let small_route =
  let arch = F.Arch.create 5 in
  let rng = F.Rng.create 11 in
  let nl = F.Netlist.random ~rng ~arch ~num_nets:20 ~max_fanout:3 ~locality:2 in
  F.Global_router.route arch nl

let small_graph = F.Conflict_graph.build small_route
let small_ub = G.Greedy.upper_bound small_graph

(* --- strategy names --- *)

let test_strategy_name_roundtrip () =
  List.iter
    (fun s ->
      let s' =
        match Strategy.of_name (Strategy.name s) with
        | Ok s' -> s'
        | Error m -> Alcotest.fail m
      in
      Alcotest.(check string) "name roundtrip" (Strategy.name s) (Strategy.name s'))
    (Strategy.best_single :: Strategy.paper_portfolio_3)

let test_strategy_parsing () =
  let s = strategy "muldirect/b1@minisat" in
  Alcotest.(check string) "full name" "muldirect/b1@minisat" (Strategy.name s);
  let s2 = strategy "log" in
  Alcotest.(check string) "defaults" "log/none@siege" (Strategy.name s2);
  (match Strategy.of_name "nope/s1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad encoding accepted");
  (match Strategy.of_name "log/zz" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad symmetry accepted");
  (* a +defs suffix names no encoding, so no strategy *)
  (match Strategy.of_name "ITE-linear-2+muldirect+defs/s1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "+defs strategy accepted");
  match Strategy.of_name "log@zz" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad solver accepted"

let test_paper_strategies () =
  Alcotest.(check string) "best single" "ITE-linear-2+muldirect/s1@siege"
    (Strategy.name Strategy.best_single);
  Alcotest.(check int) "portfolio sizes" 2 (List.length Strategy.paper_portfolio_2);
  Alcotest.(check int) "portfolio sizes" 3 (List.length Strategy.paper_portfolio_3)

(* --- flow --- *)

let test_flow_routable_at_upper_bound () =
  let run = Flow.submit Flow.default_request small_route ~width:small_ub in
  match run.Flow.outcome with
  | Flow.Routable detailed ->
      Alcotest.(check int) "width recorded" small_ub run.Flow.width;
      Alcotest.(check bool) "positive cnf" true (run.Flow.cnf_vars > 0);
      Alcotest.(check bool) "timings nonnegative" true
        (Flow.total run.Flow.timings >= 0.);
      Alcotest.(check int) "every subnet tracked"
        (F.Netlist.num_subnets small_route.F.Global_route.netlist)
        (Array.length detailed.F.Detailed_route.tracks)
  | Flow.Unroutable -> Alcotest.fail "DSATUR width must be routable"
  | Flow.Timeout | Flow.Memout -> Alcotest.fail "no budget was set"

let test_flow_unroutable_at_one () =
  if G.Graph.num_edges small_graph > 0 then begin
    let run =
      Flow.(submit (default_request |> with_proof true)) small_route ~width:1
    in
    match run.Flow.outcome with
    | Flow.Unroutable -> (
        match run.Flow.proof with
        | Some proof ->
            Alcotest.(check bool) "refutation trace" true
              (Sat.Proof.ends_with_empty proof)
        | None -> Alcotest.fail "proof requested but missing")
    | Flow.Routable _ | Flow.Timeout | Flow.Memout ->
        Alcotest.fail "width 1 must be unroutable"
  end

let test_flow_all_encodings_agree () =
  (* run every encoding at the same width; all must give the same verdict *)
  let width = max 1 (small_ub - 1) in
  let verdicts =
    List.map
      (fun e ->
        let run =
          Flow.(submit (default_request |> with_strategy (Strategy.make e)))
            small_route ~width
        in
        match run.Flow.outcome with
        | Flow.Routable _ -> true
        | Flow.Unroutable -> false
        | Flow.Timeout | Flow.Memout -> Alcotest.fail "unexpected timeout")
      E.Registry.all
  in
  match verdicts with
  | [] -> Alcotest.fail "no encodings"
  | v :: rest ->
      List.iteri
        (fun i v' ->
          Alcotest.(check bool) (Printf.sprintf "encoding %d agrees" (i + 1)) v v')
        rest

let test_flow_budget_timeout () =
  let spec = Option.get (F.Benchmarks.find "C1355") in
  let inst = F.Benchmarks.build spec in
  let request =
    Flow.(
      default_request
      |> with_strategy (strategy "muldirect")
      |> with_budget (Sat.Solver.conflict_budget 10))
  in
  let run =
    Flow.submit request inst.F.Benchmarks.route
      ~width:(inst.F.Benchmarks.max_congestion - 1)
  in
  match run.Flow.outcome with
  | Flow.Timeout | Flow.Memout -> ()
  | Flow.Routable _ | Flow.Unroutable ->
      Alcotest.fail "10 conflicts cannot decide C1355"

let test_flow_rejects_bad_width () =
  Alcotest.check_raises "width 0" (Invalid_argument "Flow.submit: width < 1")
    (fun () -> ignore (Flow.submit Flow.default_request small_route ~width:0))

(* Flow.finish certifies against the evidence it is given: a model is
   checked against the CNF and the routing verified; a colouring found
   without a solver is certified by the routing check alone; a refutation
   without a proof is refused; no evidence means no certification. *)
let test_flow_finish_evidence () =
  let finish ?certify ?(width = small_ub) answer =
    Flow.finish ?certify ~strategy:Strategy.best_single ~cnf_size:(0, 0)
      ~timings:{ Flow.to_graph = 0.; to_cnf = 0.; solving = 0. }
      ~stats:(Sat.Stats.create ()) small_route ~width answer
  in
  let greedy = `Colorable (G.Greedy.dsatur small_graph) in
  Alcotest.(check (option bool)) "unsolved colouring: verify alone"
    (Some true) (finish ~certify:`Unsolved greedy).Flow.certified;
  Alcotest.(check (option bool)) "no evidence" None
    (finish greedy).Flow.certified;
  let empty = Sat.Cnf.create () in
  Alcotest.(check (option bool)) "refutation without a proof" (Some false)
    (finish ~certify:(`Solved (empty, Sat.Solver.Unsat)) `Uncolorable)
      .Flow.certified;
  let cnf = Sat.Cnf.create () in
  Sat.Cnf.add_clause cnf [ Sat.Lit.pos (Sat.Cnf.fresh_var cnf) ];
  Alcotest.(check (option bool)) "a model that fails the CNF" (Some false)
    (finish ~certify:(`Solved (cnf, Sat.Solver.Sat [| false |])) greedy)
      .Flow.certified;
  Alcotest.(check (option bool)) "a model that satisfies the CNF" (Some true)
    (finish ~certify:(`Solved (cnf, Sat.Solver.Sat [| true |])) greedy)
      .Flow.certified;
  let clique = Array.of_list (G.Clique.maximum small_graph) in
  let omega = Array.length clique in
  Alcotest.(check (option bool)) "a clique refutes the width below it"
    (Some true)
    (finish ~certify:(`Clique clique) ~width:(omega - 1) `Uncolorable)
      .Flow.certified;
  Alcotest.(check (option bool)) "but not its own size" (Some false)
    (finish ~certify:(`Clique clique) ~width:omega `Uncolorable).Flow.certified;
  Alcotest.(check (option bool)) "a clique says nothing of a colouring" None
    (finish ~certify:(`Clique clique) greedy).Flow.certified

(* --- binary search --- *)

let test_binary_search_minimal () =
  match C.Binary_search.minimal_width small_route with
  | Error m -> Alcotest.fail m
  | Ok r ->
      let w = r.C.Binary_search.w_min in
      (* w_min is routable (we hold a verified routing object) *)
      Alcotest.(check int) "routing width" w
        r.C.Binary_search.routing.F.Detailed_route.width;
      (* w_min - 1 is unroutable: either a SAT refutation was recorded or
         the clique bound covers it *)
      (match r.C.Binary_search.unsat_below with
      | Some run -> (
          Alcotest.(check int) "refuted width" (w - 1) run.Flow.width;
          match run.Flow.outcome with
          | Flow.Unroutable -> ()
          | Flow.Routable _ | Flow.Timeout | Flow.Memout ->
              Alcotest.fail "not a refutation")
      | None ->
          Alcotest.(check bool) "structural bound" true
            (G.Clique.lower_bound small_graph >= w));
      (* cross-check against an independent direct query *)
      let direct = Flow.submit Flow.default_request small_route ~width:(w - 1) in
      if w > 1 then
        match direct.Flow.outcome with
        | Flow.Unroutable -> ()
        | Flow.Routable _ -> Alcotest.fail "w_min - 1 was routable"
        | Flow.Timeout | Flow.Memout -> Alcotest.fail "unexpected timeout"

let test_binary_search_budget_error () =
  let spec = Option.get (F.Benchmarks.find "C1355") in
  let inst = F.Benchmarks.build spec in
  match
    C.Binary_search.minimal_width
      ~strategy:(strategy "muldirect")
      ~budget:(Sat.Solver.conflict_budget 5) inst.F.Benchmarks.route
  with
  | Error _ -> ()
  | Ok r ->
      (* a 5-conflict budget can only succeed if every query was trivial;
         accept but sanity-check the result *)
      Alcotest.(check bool) "w_min positive" true (r.C.Binary_search.w_min >= 1)

(* --- incremental width --- *)

(* On [small_graph] the maximum clique meets the DSATUR bound, so the walk
   answers from the bounds with no query; on alu2 (clique 6, DSATUR 7) it
   has to search. *)
let test_incremental_matches_binary_search () =
  let alu2 = F.Benchmarks.build (Option.get (F.Benchmarks.find "alu2")) in
  List.iter
    (fun (name, route, graph, searches) ->
      match
        ( C.Binary_search.minimal_width route,
          C.Incremental_width.minimal_colors graph )
      with
      | Ok bs, Ok inc ->
          Alcotest.(check int) (name ^ ": same minimal width")
            bs.C.Binary_search.w_min inc.C.Incremental_width.w_min;
          Alcotest.(check bool) (name ^ ": colouring proper") true
            (G.Coloring.is_proper graph ~k:inc.C.Incremental_width.w_min
               inc.C.Incremental_width.coloring);
          Alcotest.(check bool) (name ^ ": made SAT queries") searches
            (inc.C.Incremental_width.queries > 0)
      | Error m, _ | _, Error m -> Alcotest.fail (name ^ ": " ^ m))
    [
      ("small", small_route, small_graph, false);
      ("alu2", alu2.F.Benchmarks.route, alu2.F.Benchmarks.graph, true);
    ]

let test_incremental_other_encodings () =
  List.iter
    (fun sname ->
      match
        C.Incremental_width.minimal_colors ~strategy:(strategy sname) small_graph
      with
      | Ok inc ->
          Alcotest.(check bool) "proper" true
            (G.Coloring.is_proper small_graph ~k:inc.C.Incremental_width.w_min
               inc.C.Incremental_width.coloring)
      | Error m -> Alcotest.fail (sname ^ ": " ^ m))
    [ "muldirect"; "log/s1"; "ITE-log/b1"; "direct-3+muldirect/s1@minisat" ]

(* Every encoding's selector clauses, one property each (the registry, the
   multi-level extensions and the unshared ablation): a ladder built on a
   random graph of up to 24 vertices answers every width from 1 to one
   above its DSATUR bound, in a random order and with learnt clauses kept
   between queries, exactly as exhaustive search does, and each colouring
   it returns is proper within its width. Widths between the chromatic
   number and the DSATUR bound are the ones a wrong selector clause gets
   wrong; about one graph in fifteen drawn here has them. The symmetry
   heuristic rotates with the draw. *)
let gen_ladder_input =
  QCheck2.Gen.(
    let* n = int_range 1 24 in
    let* edges =
      list_repeat
        (min 100 (n * (n - 1) / 2))
        (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
    in
    let* symmetry = oneofl [ None; Some E.Symmetry.B1; Some E.Symmetry.S1 ] in
    let* widths = shuffle_l (List.init (n + 1) (fun i -> i + 1)) in
    return (n, List.filter (fun (u, v) -> u <> v) edges, symmetry, widths))

let props_ladder_answers_every_width =
  List.map
    (fun encoding ->
      QCheck2.Test.make ~count:100
        ~name:
          (Printf.sprintf "ladder answers every width: %s"
             (E.Encoding.name encoding))
        gen_ladder_input
        (fun (n, edges, symmetry, widths) ->
          let g = G.Graph.of_edges n edges in
          let ladder =
            C.Incremental_width.prepare
              ~strategy:(Strategy.make ?symmetry encoding)
              g
          in
          let upper = (C.Incremental_width.bounds ladder).C.Width_bounds.upper in
          List.for_all
            (fun width ->
              match
                ( C.Incremental_width.query ladder ~width,
                  G.Exact_coloring.k_colorable g ~k:width )
              with
              | `Colorable coloring, G.Exact_coloring.Colorable _ ->
                  G.Coloring.is_proper g ~k:width coloring
              | `Uncolorable, G.Exact_coloring.Uncolorable -> true
              | _ -> false)
            (List.filter (fun w -> w <= upper + 1) widths)))
    (E.Registry.all @ E.Registry.multi_level_extensions
    @ [ (strategy "direct-3+muldirect!unshared").Strategy.encoding ])

let test_solver_assumptions_basic () =
  (* (x0 | x1) with assumption -x0 forces x1; assuming both negative is
     UNSAT under assumptions while the formula stays satisfiable *)
  let cnf = Sat.Cnf.create () in
  Sat.Cnf.ensure_vars cnf 2;
  Sat.Cnf.add_clause cnf [ Sat.Lit.pos 0; Sat.Lit.pos 1 ];
  let solver = Sat.Solver.create cnf in
  (match Sat.Solver.solve_with ~assumptions:[ Sat.Lit.neg_of 0 ] solver with
  | Sat.Solver.Q_sat model ->
      Alcotest.(check bool) "x1 true" true model.(1);
      Alcotest.(check bool) "x0 false" false model.(0)
  | Sat.Solver.Q_unsat | Sat.Solver.Q_unknown | Sat.Solver.Q_memout ->
      Alcotest.fail "satisfiable");
  (match
     Sat.Solver.solve_with
       ~assumptions:[ Sat.Lit.neg_of 0; Sat.Lit.neg_of 1 ]
       solver
   with
  | Sat.Solver.Q_unsat -> ()
  | Sat.Solver.Q_sat _ | Sat.Solver.Q_unknown | Sat.Solver.Q_memout ->
      Alcotest.fail "unsat under assumptions");
  (* the solver is reusable after an assumption failure *)
  match Sat.Solver.solve_with solver with
  | Sat.Solver.Q_sat _ -> ()
  | Sat.Solver.Q_unsat | Sat.Solver.Q_unknown | Sat.Solver.Q_memout ->
      Alcotest.fail "still satisfiable"

(* --- report --- *)
(* portfolio tests live in test_engine.ml, next to the engine the
   portfolios now run on *)

let test_format_seconds () =
  Alcotest.(check string) "small" "0.10" (C.Report.format_seconds 0.1);
  Alcotest.(check string) "thousands" "1,018.10" (C.Report.format_seconds 1018.1);
  Alcotest.(check string) "millions" "1,054,417.00"
    (C.Report.format_seconds 1054417.)

let test_format_speedup () =
  Alcotest.(check string) "unit" "1.00x" (C.Report.format_speedup 1.);
  Alcotest.(check string) "small" "2.30x" (C.Report.format_speedup 2.3);
  Alcotest.(check string) "large" "1,139x" (C.Report.format_speedup 1139.2)

let test_render_table () =
  let t =
    C.Report.render_table ~header:[ "name"; "t" ]
      [ [ "a"; "1.0" ]; [ "long-name" ] ]
  in
  Alcotest.(check bool) "contains header" true
    (String.length t > 0 && String.sub t 0 4 = "name");
  (* short row was padded, so every line has the same width *)
  let lines = String.split_on_char '\n' t |> List.filter (fun l -> l <> "") in
  match lines with
  | first :: rest ->
      List.iter
        (fun l ->
          Alcotest.(check int) "aligned" (String.length first) (String.length l))
        rest
  | [] -> Alcotest.fail "empty table"

(* A fixed default seed keeps failures reproducible; QCHECK_SEED overrides
   it. *)
let seed =
  match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
  | Some s -> s
  | None -> 20080307

let qtests =
  List.map (fun t ->
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) t)

let () =
  Alcotest.run "core"
    [
      ( "strategy",
        [
          Alcotest.test_case "name roundtrip" `Quick test_strategy_name_roundtrip;
          Alcotest.test_case "parsing" `Quick test_strategy_parsing;
          Alcotest.test_case "paper strategies" `Quick test_paper_strategies;
        ] );
      ( "flow",
        [
          Alcotest.test_case "routable at upper bound" `Quick
            test_flow_routable_at_upper_bound;
          Alcotest.test_case "unroutable at width 1" `Quick test_flow_unroutable_at_one;
          Alcotest.test_case "all encodings agree" `Slow test_flow_all_encodings_agree;
          Alcotest.test_case "budget timeout" `Quick test_flow_budget_timeout;
          Alcotest.test_case "bad width rejected" `Quick test_flow_rejects_bad_width;
          Alcotest.test_case "finish evidence" `Quick test_flow_finish_evidence;
        ] );
      ( "binary-search",
        [
          Alcotest.test_case "finds minimal width" `Quick test_binary_search_minimal;
          Alcotest.test_case "budget error" `Quick test_binary_search_budget_error;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "assumptions basic" `Quick test_solver_assumptions_basic;
          Alcotest.test_case "matches binary search" `Quick
            test_incremental_matches_binary_search;
          Alcotest.test_case "other encodings" `Quick test_incremental_other_encodings;
        ] );
      ("ladder", qtests props_ladder_answers_every_width);
      ( "report",
        [
          Alcotest.test_case "seconds" `Quick test_format_seconds;
          Alcotest.test_case "speedup" `Quick test_format_speedup;
          Alcotest.test_case "table" `Quick test_render_table;
        ] );
    ]

(* Tests for the observability layer: the trace ring buffer (wraparound,
   zero-allocation when disabled, sink mapping, Chrome export), telemetry
   derivation and its backward-compatible ride on the run-record schema,
   and the perf gate's rules for every kind of section. *)

module Sat = Fpgasat_sat
module F = Fpgasat_fpga
module C = Fpgasat_core
module Eng = Fpgasat_engine
module Obs = Fpgasat_obs
module Json = Obs.Json
module Trace = Obs.Trace
module Telemetry = Obs.Telemetry
module Gate = Obs.Gate
module Fit = Obs.Fit
module Flow = C.Flow

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* a small instance for end-to-end runs *)
let small_route =
  let arch = F.Arch.create 5 in
  let rng = F.Rng.create 11 in
  let nl = F.Netlist.random ~rng ~arch ~num_nets:20 ~max_fanout:3 ~locality:2 in
  F.Global_router.route arch nl

(* ---------- Trace ring ---------- *)

let test_trace_capacity_rounds_up () =
  Alcotest.(check int) "default" Trace.default_capacity
    (Trace.capacity (Trace.create ()));
  Alcotest.(check int) "3 -> 4" 4 (Trace.capacity (Trace.create ~capacity:3 ()));
  Alcotest.(check int) "8 stays 8" 8
    (Trace.capacity (Trace.create ~capacity:8 ()));
  Alcotest.check_raises "capacity < 1 rejected"
    (Invalid_argument "Trace.create: capacity < 1") (fun () ->
      ignore (Trace.create ~capacity:0 ()))

let test_trace_records_in_order () =
  let t = Trace.create ~capacity:16 () in
  Trace.record t Trace.Restart 1 0;
  Trace.record t Trace.Restart 2 0;
  Trace.record t Trace.Reduce_db 100 40;
  let evs = Trace.events t in
  Alcotest.(check int) "length" 3 (List.length evs);
  Alcotest.(check int) "total" 3 (Trace.total t);
  (match evs with
  | [ e1; e2; e3 ] ->
      Alcotest.(check bool) "kind 1" true (e1.Trace.kind = Trace.Restart);
      Alcotest.(check int) "a 1" 1 e1.Trace.a;
      Alcotest.(check int) "a 2" 2 e2.Trace.a;
      Alcotest.(check bool) "kind 3" true (e3.Trace.kind = Trace.Reduce_db);
      Alcotest.(check int) "b 3" 40 e3.Trace.b;
      Alcotest.(check bool) "ts monotone" true
        (e1.Trace.ts <= e2.Trace.ts && e2.Trace.ts <= e3.Trace.ts)
  | _ -> Alcotest.fail "expected 3 events")

let test_trace_ring_wraps () =
  let t = Trace.create ~capacity:8 () in
  for i = 1 to 20 do
    Trace.record t Trace.Restart i 0
  done;
  Alcotest.(check int) "total counts everything" 20 (Trace.total t);
  Alcotest.(check int) "length clamps to capacity" 8 (Trace.length t);
  let evs = Trace.events t in
  (* the retained window is the most recent [capacity] events, oldest
     first: 13..20 *)
  Alcotest.(check (list int)) "retained window"
    [ 13; 14; 15; 16; 17; 18; 19; 20 ]
    (List.map (fun e -> e.Trace.a) evs)

let test_trace_concurrent_recording () =
  let t = Trace.create ~capacity:1024 () in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to 100 do
              Trace.record t Trace.Inprocess ((d * 1000) + i) 0
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "no event lost" 400 (Trace.total t);
  Alcotest.(check int) "all retained" 400 (Trace.length t)

let measure_alloc f =
  (* warm up so any one-time allocation (closure specialisation etc.)
     happens outside the measured window *)
  f ();
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_disabled_record_does_not_allocate () =
  let none : Trace.t option = None in
  let words =
    measure_alloc (fun () ->
        for i = 1 to 10_000 do
          Trace.record_opt none Trace.Restart i 0
        done)
  in
  Alcotest.(check (float 0.)) "disabled record_opt allocates nothing" 0. words

let test_enabled_record_does_not_allocate () =
  let t = Trace.create ~capacity:64 () in
  let words =
    measure_alloc (fun () ->
        for i = 1 to 10_000 do
          Trace.record t Trace.Restart i 0
        done)
  in
  Alcotest.(check (float 0.)) "enabled record allocates nothing" 0. words

(* The solver must not pay for events nobody listens to: solving with
   [on_event = None] (the default budget) allocates exactly as much as it
   did before the hook existed — the emission sites are a single match. *)
let test_solver_without_hook_no_event_allocation () =
  let cnf = Sat.Dimacs_cnf.parse_string "p cnf 3 4\n1 2 0\n-1 3 0\n-2 -3 0\n1 -3 0\n" in
  let solve () = ignore (Sat.Solver.solve cnf) in
  solve ();
  let baseline = measure_alloc solve in
  let hooked =
    let t = Trace.create () in
    let budget = Sat.Solver.with_event_hook (Trace.sink t) Sat.Solver.no_budget in
    let solve () = ignore (Sat.Solver.solve ~budget cnf) in
    solve ();
    measure_alloc solve
  in
  (* both are small and within noise of each other; the point is the
     unhooked path does not balloon *)
  Alcotest.(check bool)
    (Printf.sprintf "unhooked alloc (%.0f) <= hooked alloc (%.0f) + slack"
       baseline hooked)
    true
    (baseline <= hooked +. 256.)

let test_sink_maps_solver_events () =
  let t = Trace.create () in
  let sink = Trace.sink t in
  sink (Sat.Event.Restart 3);
  sink (Sat.Event.Reduce_db (200, 80));
  sink (Sat.Event.Memout_poll 12345);
  sink (Sat.Event.Inprocess (5, 7));
  let kinds = List.map (fun e -> (e.Trace.kind, e.Trace.a, e.Trace.b)) (Trace.events t) in
  Alcotest.(check bool) "mapping" true
    (kinds
    = [
        (Trace.Restart, 3, 0);
        (Trace.Reduce_db, 200, 80);
        (Trace.Memout_poll, 12345, 0);
        (Trace.Inprocess, 5, 7);
      ])

let json_mem key = function
  | Json.Obj fields -> List.assoc_opt key fields
  | _ -> None

let test_trace_to_json_schema () =
  let t = Trace.create ~capacity:4 () in
  for i = 1 to 6 do
    Trace.record t Trace.Restart i 0
  done;
  let j = Trace.to_json t in
  (match json_mem "schema" j with
  | Some (Json.String s) ->
      Alcotest.(check string) "schema" Trace.schema_version s
  | _ -> Alcotest.fail "schema key missing");
  (match json_mem "dropped" j with
  | Some (Json.Int d) -> Alcotest.(check int) "dropped" 2 d
  | _ -> Alcotest.fail "dropped key missing");
  match json_mem "events" j with
  | Some (Json.List evs) -> Alcotest.(check int) "events" 4 (List.length evs)
  | _ -> Alcotest.fail "events key missing"

let test_trace_to_chrome_spans () =
  let t = Trace.create () in
  Trace.record t Trace.Solve_begin 4 0;
  Trace.record t Trace.Restart 1 0;
  Trace.record t Trace.Solve_end 4 1;
  match Trace.to_chrome t with
  | Json.Obj fields -> (
      match List.assoc "traceEvents" fields with
      | Json.List evs ->
          let phases =
            List.filter_map
              (fun e ->
                match json_mem "ph" e with
                | Some (Json.String p) -> Some p
                | _ -> None)
              evs
          in
          (* the begin/end pair folds into one complete span + the restart
             instant *)
          Alcotest.(check bool) "one span" true (List.mem "X" phases);
          Alcotest.(check bool) "one instant" true (List.mem "i" phases);
          Alcotest.(check int) "two events" 2 (List.length evs)
      | _ -> Alcotest.fail "traceEvents not a list")
  | _ -> Alcotest.fail "to_chrome not an object"

(* ---------- Telemetry ---------- *)

let sample_telemetry () =
  let stats = Sat.Stats.create () in
  stats.Sat.Stats.propagations <- 1000;
  stats.Sat.Stats.conflicts <- 50;
  Sat.Stats.bump_lbd stats 2;
  Sat.Stats.bump_lbd stats 2;
  Sat.Stats.bump_lbd stats 7;
  Sat.Stats.bump_lbd stats 99 (* clamps into the last bucket *);
  Sat.Stats.note_heap_words stats 123456;
  Telemetry.of_stats ~solving:0.5 ~words_allocated:4242 stats

let test_telemetry_of_stats () =
  let t = sample_telemetry () in
  Alcotest.(check (float 1e-9)) "props/s" 2000. t.Telemetry.propagations_per_sec;
  Alcotest.(check (float 1e-9)) "conflicts/s" 100. t.Telemetry.conflicts_per_sec;
  Alcotest.(check int) "hist[2]" 2 t.Telemetry.lbd_hist.(2);
  Alcotest.(check int) "hist[7]" 1 t.Telemetry.lbd_hist.(7);
  Alcotest.(check int) "hist[last] clamps" 1
    t.Telemetry.lbd_hist.(Telemetry.lbd_buckets - 1);
  Alcotest.(check int) "peak heap" 123456 t.Telemetry.peak_heap_words;
  Alcotest.(check int) "words allocated" 4242 t.Telemetry.words_allocated

let test_telemetry_zero_time_rates () =
  let stats = Sat.Stats.create () in
  stats.Sat.Stats.propagations <- 1000;
  let t = Telemetry.of_stats ~solving:0. ~words_allocated:0 stats in
  Alcotest.(check (float 0.)) "zero-time rate is 0" 0.
    t.Telemetry.propagations_per_sec

let test_telemetry_json_roundtrip () =
  let t = sample_telemetry () in
  match Telemetry.of_json (Telemetry.to_json t) with
  | Error m -> Alcotest.fail m
  | Ok t' -> Alcotest.(check bool) "roundtrip" true (Telemetry.equal t t')

let qcheck_telemetry_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"telemetry JSON round-trips bit-exactly"
    QCheck2.Gen.(
      tup4 (float_bound_exclusive 1e6) (float_bound_exclusive 1e6)
        (array_size (int_bound Telemetry.lbd_buckets) (int_bound 1000))
        (tup2 nat nat))
    (fun (props, confls, hist_prefix, (words, peak)) ->
      let lbd_hist = Array.make Telemetry.lbd_buckets 0 in
      Array.iteri (fun i v -> lbd_hist.(i) <- v) hist_prefix;
      let t =
        {
          Telemetry.propagations_per_sec = props;
          conflicts_per_sec = confls;
          lbd_hist;
          words_allocated = words;
          peak_heap_words = peak;
          solve_seconds = props /. 1000.;
        }
      in
      match Telemetry.of_json (Telemetry.to_json t) with
      | Ok t' -> Telemetry.equal t t'
      | Error _ -> false)

(* ---------- run-record compatibility ---------- *)

let run_once ~telemetry =
  Flow.(submit (default_request |> with_telemetry telemetry)) small_route
    ~width:6

let test_record_with_telemetry_roundtrips () =
  let run = run_once ~telemetry:true in
  Alcotest.(check bool) "run carries telemetry" true (run.Flow.telemetry <> None);
  let r = Eng.Run_record.of_run ~benchmark:"small" ~wall_seconds:0.1 run in
  Alcotest.(check bool) "record carries telemetry" true
    (r.Eng.Run_record.telemetry <> None);
  match Eng.Run_record.of_line (Eng.Run_record.to_line r) with
  | Error m -> Alcotest.fail m
  | Ok r' -> Alcotest.(check bool) "roundtrip" true (Eng.Run_record.equal r r')

let test_record_without_telemetry_unchanged () =
  let run = run_once ~telemetry:false in
  Alcotest.(check bool) "no telemetry by default" true (run.Flow.telemetry = None);
  let r = Eng.Run_record.of_run ~benchmark:"small" ~wall_seconds:0.1 run in
  let line = Eng.Run_record.to_line r in
  Alcotest.(check bool) "line has no telemetry key" false
    (contains line "telemetry")

(* a pre-telemetry record line, verbatim from a seed-era sweep file *)
let old_line =
  {|{"schema":"fpgasat.run/1","benchmark":"alu2","strategy":"muldirect/s1@siege","width":4,"outcome":"unroutable","timings":{"to_graph":0.001,"to_cnf":0.002,"solving":0.003},"wall_seconds":0.01,"cnf":{"vars":552,"clauses":2628},"solver":{"decisions":494,"propagations":1087,"conflicts":58,"restarts":0,"learnt_clauses":57,"learnt_literals":100,"deleted_clauses":0,"max_decision_level":101}}|}

let test_old_records_still_parse () =
  match Eng.Run_record.of_line old_line with
  | Error m -> Alcotest.fail ("old line rejected: " ^ m)
  | Ok r ->
      Alcotest.(check bool) "telemetry absent" true
        (r.Eng.Run_record.telemetry = None);
      (* and re-serialising an old record stays telemetry-free *)
      let line' = Eng.Run_record.to_line r in
      Alcotest.(check string) "byte-identical" old_line line'

(* ---------- Gate ---------- *)

(* The rules are one set for every kind, so most cases take the kind as an
   input: [mk tol] builds it, and [judge mk tol sections] judges current
   sections of that kind against [base]. *)
let base = Gate.make [ ("solve", [ ("a", 1.0); ("b", 2.0) ]) ]

let judge ?(baseline = base) mk tol sections =
  Gate.check ~baseline
    ~current:
      (List.map (fun (name, cells) -> { Gate.name; kind = mk tol; cells }) sections)

let only_section (r : Gate.report) =
  match r.Gate.sections with
  | [ s ] -> s
  | _ -> Alcotest.fail "one section expected"

let failing (s : Gate.section_report) =
  List.filter_map
    (fun (c : Gate.cell) -> if c.Gate.ok then None else Some c.Gate.cell)
    s.Gate.cells

let missing (s : Gate.section_report) =
  List.filter_map
    (fun (c : Gate.cell) -> if c.Gate.current = None then Some c.Gate.cell else None)
    s.Gate.cells

let test_gate_json_roundtrip () =
  let b =
    Gate.make
      [ ("encode", [ ("x", 0.125) ]); ("solve", [ ("a", 1.0); ("b", 0.0) ]) ]
  in
  match Gate.of_string (Json.to_string (Gate.to_json b)) with
  | Error m -> Alcotest.fail m
  | Ok b' ->
      Alcotest.(check bool) "sections survive" true
        (Gate.sections b = Gate.sections b')

let test_gate_equal_passes mk () =
  let r = judge mk 1.25 [ ("solve", [ ("a", 1.0); ("b", 2.0) ]) ] in
  Alcotest.(check bool) "ok" true r.Gate.ok;
  let s = only_section r in
  match s.Gate.kind with
  | Some (Gate.Ratio _) ->
      Alcotest.(check (option (float 1e-9))) "geomean 1" (Some 1.) s.Gate.ratio
  | Some (Gate.Exponent _ | Gate.Exact) | None ->
      Alcotest.(check bool) "every cell ok" true
        (List.for_all (fun (c : Gate.cell) -> c.Gate.ok) s.Gate.cells)

let test_gate_regression_fails mk () =
  (* a: 1.0 -> 2.4 is a 1.55x geometric mean over both cells and an
     exponent drift of +1.4 on cell a alone *)
  let slower = [ ("solve", [ ("a", 2.4); ("b", 2.0) ]) ] in
  let r = judge mk 1.25 slower in
  Alcotest.(check bool) "regressed" false r.Gate.ok;
  Alcotest.(check (list string))
    "failing cells"
    (match mk 1. with Gate.Exponent _ | Gate.Exact -> [ "a" ] | Gate.Ratio _ -> [])
    (failing (only_section r));
  match mk 1. with
  | Gate.Ratio _ | Gate.Exponent _ ->
      Alcotest.(check bool) "looser gate passes" true (judge mk 2.0 slower).Gate.ok
  | Gate.Exact ->
      Alcotest.(check bool) "no tolerance to loosen" false
        (judge mk 2.0 slower).Gate.ok

let test_gate_improvement_passes mk () =
  let r = judge mk 1.25 [ ("solve", [ ("a", 0.5); ("b", 1.0) ]) ] in
  Alcotest.(check bool) "faster is fine" true r.Gate.ok

let test_gate_missing_section_fails mk () =
  let r = judge mk 1.25 [ ("other", [ ("a", 1.0) ]) ] in
  Alcotest.(check bool) "missing section fails" false r.Gate.ok;
  let s = only_section r in
  Alcotest.(check bool) "no kind" true (s.Gate.kind = None);
  Alcotest.(check (list string)) "all cells missing" [ "a"; "b" ] (missing s)

let test_gate_missing_cell_fails mk () =
  let r = judge mk 1.25 [ ("solve", [ ("a", 1.0) ]) ] in
  Alcotest.(check bool) "missing cell fails" false r.Gate.ok;
  let s = only_section r in
  Alcotest.(check (list string)) "b missing" [ "b" ] (missing s);
  Alcotest.(check int) "a still compared" 1
    (List.length s.Gate.cells - List.length (missing s))

let test_gate_extra_current_ignored mk () =
  let r =
    judge mk 1.25
      [
        ("solve", [ ("a", 1.0); ("b", 2.0); ("c", 999.0) ]); ("new", [ ("z", 1.0) ]);
      ]
  in
  Alcotest.(check bool) "extra cells/sections ignored" true r.Gate.ok;
  Alcotest.(check int) "one baseline section judged" 1
    (List.length r.Gate.sections)

let test_gate_tolerance_validated mk () =
  List.iter
    (fun tol ->
      Alcotest.check_raises "non-positive tolerance"
        (Invalid_argument "Gate.check: tolerance <= 0") (fun () ->
          ignore (judge mk tol [ ("solve", [ ("a", 1.0) ]) ])))
    [ 0.; -1. ]

let test_gate_render_verdict mk () =
  let ends_with s suffix =
    let n = String.length s and m = String.length suffix in
    n >= m && String.sub s (n - m) m = suffix
  in
  let pass = Gate.render (judge mk 1.25 [ ("solve", [ ("a", 1.0); ("b", 2.0) ]) ]) in
  Alcotest.(check bool) "PASS" true (ends_with pass "PASS");
  let fail =
    Gate.render (judge mk 1.25 [ ("solve", [ ("a", 100.0); ("b", 200.0) ]) ])
  in
  Alcotest.(check bool) "FAIL" true (ends_with fail "FAIL: performance regression")

let test_gate_zero_time_ratio_cells () =
  (* both sides clamp to 1 µs: 0/0 compares equal instead of NaN, and a
     0 -> 1s blowup still registers as a (huge) regression *)
  let base0 = Gate.make [ ("solve", [ ("a", 0.0) ]) ] in
  let ratio cells = judge ~baseline:base0 (fun t -> Gate.Ratio t) 1.25 cells in
  Alcotest.(check bool) "0/0 passes" true (ratio [ ("solve", [ ("a", 0.0) ]) ]).Gate.ok;
  Alcotest.(check bool) "0 -> 1s fails" false
    (ratio [ ("solve", [ ("a", 1.0) ]) ]).Gate.ok

let test_gate_exponents_unclamped () =
  (* fitted exponents are often negative (the seed's grid fits are about
     -6 to -8); clamping them like times would hide any drift *)
  let baseline = Gate.make [ ("exponents", [ ("s|grid", -6.3) ]) ] in
  let exponent e =
    judge ~baseline (fun t -> Gate.Exponent t) 1.5 [ ("exponents", [ ("s|grid", e) ]) ]
  in
  Alcotest.(check bool) "-6.3 -> -5.0 passes" true (exponent (-5.0)).Gate.ok;
  Alcotest.(check bool) "-6.3 -> -4.0 fails" false (exponent (-4.0)).Gate.ok

let test_gate_exact_any_change_fails () =
  (* a work counter that falls is as much a change in the search as one
     that rises: both need a deliberate baseline bump *)
  let r = judge (fun _ -> Gate.Exact) 1.25 [ ("solve", [ ("a", 0.5); ("b", 2.0) ]) ] in
  Alcotest.(check bool) "fewer fails" false r.Gate.ok;
  Alcotest.(check (list string)) "differing cell" [ "a" ] (failing (only_section r));
  let text = Gate.render r in
  Alcotest.(check bool) "differing cell listed" true
    (contains text "baseline 1, current 0.5");
  Alcotest.(check bool) "equal cell not listed" false (contains text "baseline 2,")

let test_gate_kind_per_section () =
  (* the bench's perf gate: wall-time sections at 1.25x, props at its own
     >10 % throughput contract — one check, a kind per section *)
  let cells = [ ("a", 1.0); ("b", 2.0) ] in
  let slower = List.map (fun (k, v) -> (k, 1.2 *. v)) cells in
  let r =
    Gate.check
      ~baseline:(Gate.make [ ("solve", cells); ("props", cells) ])
      ~current:
        [
          { Gate.name = "solve"; kind = Gate.Ratio 1.25; cells = slower };
          { Gate.name = "props"; kind = Gate.Ratio (1. /. 0.9); cells = slower };
        ]
  in
  Alcotest.(check (list (pair string bool)))
    "only props fails"
    [ ("solve", true); ("props", false) ]
    (List.map
       (fun (s : Gate.section_report) -> (s.Gate.section, s.Gate.ok))
       r.Gate.sections);
  Alcotest.(check bool) "overall fails" false r.Gate.ok

let test_gate_committed_baselines () =
  (* read the way the bench reads --baseline: fpgasat.bench/1 for the perf
     gate, fpgasat.scaling/1 as one exponents section under --scaling *)
  let read of_file path =
    match of_file path with Ok b -> b | Error m -> Alcotest.fail (path ^ ": " ^ m)
  in
  let perf = read Gate.of_file "../bench/BENCH_seed.json" in
  let kind name = if name = "work" then Gate.Exact else Gate.Ratio 1.25 in
  let r =
    Gate.check ~baseline:perf
      ~current:
        (List.map
           (fun (name, cells) -> { Gate.name; kind = kind name; cells })
           (Gate.sections perf))
  in
  Alcotest.(check bool) "perf seed passes itself" true r.Gate.ok;
  Alcotest.(check (list string))
    "perf sections" [ "encode"; "solve"; "props"; "work" ]
    (List.map (fun (s : Gate.section_report) -> s.Gate.section) r.Gate.sections);
  List.iter
    (fun (s : Gate.section_report) ->
      Alcotest.(check (option (float 1e-12)))
        "ratio 1.000"
        (if s.Gate.section = "work" then None else Some 1.)
        s.Gate.ratio)
    r.Gate.sections;
  let cells =
    Fit.exponents (read Fit.of_file "../bench/BENCH_scaling_seed.json")
  in
  let r =
    Gate.check
      ~baseline:(Gate.make [ ("exponents", cells) ])
      ~current:[ { Gate.name = "exponents"; kind = Gate.Exponent 1.5; cells } ]
  in
  Alcotest.(check bool) "scaling seed passes itself" true r.Gate.ok;
  let s = only_section r in
  Alcotest.(check int) "six exponent cells" 6 (List.length s.Gate.cells);
  Alcotest.(check bool) "cells named strategy|dimension" true
    (List.exists
       (fun (c : Gate.cell) -> c.Gate.cell = "muldirect/s1@siege|nets")
       s.Gate.cells);
  List.iter
    (fun (c : Gate.cell) ->
      Alcotest.(check (option (float 0.)))
        "drift 0.000" (Some c.Gate.baseline) c.Gate.current)
    s.Gate.cells

(* ---------- end-to-end: flow + trace ---------- *)

let test_flow_trace_records_solve_span () =
  let trace = Trace.create () in
  let run =
    Flow.(submit (default_request |> with_trace trace)) small_route ~width:6
  in
  Alcotest.(check bool) "run decisive" true
    (match run.Flow.outcome with
    | Flow.Routable _ | Flow.Unroutable -> true
    | _ -> false);
  let kinds = List.map (fun e -> e.Trace.kind) (Trace.events trace) in
  Alcotest.(check bool) "has begin" true (List.mem Trace.Solve_begin kinds);
  Alcotest.(check bool) "has end" true (List.mem Trace.Solve_end kinds);
  (* decisive outcome is flagged on the end event *)
  let ends = List.filter (fun e -> e.Trace.kind = Trace.Solve_end) (Trace.events trace) in
  Alcotest.(check bool) "decisive flag" true
    (List.for_all (fun e -> e.Trace.b = 1) ends)

let qtests = List.map QCheck_alcotest.to_alcotest [ qcheck_telemetry_roundtrip ]

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "capacity rounds up" `Quick
            test_trace_capacity_rounds_up;
          Alcotest.test_case "records in order" `Quick test_trace_records_in_order;
          Alcotest.test_case "ring wraps" `Quick test_trace_ring_wraps;
          Alcotest.test_case "concurrent recording" `Quick
            test_trace_concurrent_recording;
          Alcotest.test_case "disabled record allocation-free" `Quick
            test_disabled_record_does_not_allocate;
          Alcotest.test_case "enabled record allocation-free" `Quick
            test_enabled_record_does_not_allocate;
          Alcotest.test_case "solver without hook stays lean" `Quick
            test_solver_without_hook_no_event_allocation;
          Alcotest.test_case "sink maps solver events" `Quick
            test_sink_maps_solver_events;
          Alcotest.test_case "to_json schema" `Quick test_trace_to_json_schema;
          Alcotest.test_case "to_chrome folds spans" `Quick
            test_trace_to_chrome_spans;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "of_stats" `Quick test_telemetry_of_stats;
          Alcotest.test_case "zero-time rates" `Quick test_telemetry_zero_time_rates;
          Alcotest.test_case "json roundtrip" `Quick test_telemetry_json_roundtrip;
        ] );
      ( "run-record",
        [
          Alcotest.test_case "with telemetry roundtrips" `Quick
            test_record_with_telemetry_roundtrips;
          Alcotest.test_case "without telemetry unchanged" `Quick
            test_record_without_telemetry_unchanged;
          Alcotest.test_case "old records still parse" `Quick
            test_old_records_still_parse;
        ] );
      ( "gate",
        Alcotest.test_case "json roundtrip" `Quick test_gate_json_roundtrip
        :: List.concat_map
             (fun (kind, mk) ->
               List.filter_map
                 (fun (name, test, tolerance_only) ->
                   (* [Exact] has no tolerance: nothing to validate, and
                      an improvement is a change like any other *)
                   if tolerance_only && mk 1. = Gate.Exact then None
                   else
                     Some
                       (Alcotest.test_case
                          (Printf.sprintf "%s (%s)" name kind)
                          `Quick (test mk)))
                 [
                   ("equal passes", test_gate_equal_passes, false);
                   ("regression fails", test_gate_regression_fails, false);
                   ("improvement passes", test_gate_improvement_passes, true);
                   ("missing section fails", test_gate_missing_section_fails, false);
                   ("missing cell fails", test_gate_missing_cell_fails, false);
                   ("extra current ignored", test_gate_extra_current_ignored, false);
                   ("tolerance validated", test_gate_tolerance_validated, true);
                   ("render verdict", test_gate_render_verdict, false);
                 ])
             [
               ("ratio", fun t -> Gate.Ratio t);
               ("exponent", fun t -> Gate.Exponent t);
               ("exact", fun _ -> Gate.Exact);
             ]
        @ [
            Alcotest.test_case "exact: any change fails" `Quick
              test_gate_exact_any_change_fails;
            Alcotest.test_case "zero-time ratio cells" `Quick
              test_gate_zero_time_ratio_cells;
            Alcotest.test_case "exponents unclamped" `Quick
              test_gate_exponents_unclamped;
            Alcotest.test_case "kind per section" `Quick
              test_gate_kind_per_section;
            Alcotest.test_case "committed baselines pass themselves" `Quick
              test_gate_committed_baselines;
          ] );
      ( "flow",
        [
          Alcotest.test_case "trace records solve span" `Quick
            test_flow_trace_records_solve_span;
        ] );
      ("properties", qtests);
    ]

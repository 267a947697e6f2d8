(* Tests for the dimensional benchmarking stack: the power-law fitter and
   its scaling document (Fpgasat_obs.Fit), the parameterized instance
   generator (Fpgasat_fpga.Generator), and the grid/analysis glue
   (Fpgasat_engine.Dims) — including the determinism and censoring rules
   the scaling CI gate depends on. *)

module G = Fpgasat_graph
module F = Fpgasat_fpga
module C = Fpgasat_core
module Eng = Fpgasat_engine
module Obs = Fpgasat_obs
module Fit = Obs.Fit
module Gen = F.Generator
module Dims = Eng.Dims
module Run_record = Eng.Run_record
module Flow = C.Flow

let feq = Alcotest.float 1e-9

(* ---------- Fit: exponent recovery ---------- *)

let points_of xs f group = List.map (fun x -> { Fit.x; y = f x; group }) xs

let fit_exn = function Ok f -> f | Error m -> Alcotest.fail m

let test_fit_exact_exponent () =
  let pts = points_of [ 2.; 4.; 8.; 16. ] (fun x -> 2. *. (x ** 1.5)) "g" in
  let f = fit_exn (Fit.power_law ~strategy:"s" ~dimension:"nets" pts) in
  Alcotest.check feq "exponent" 1.5 f.Fit.exponent;
  Alcotest.check feq "r2" 1. f.Fit.r2;
  Alcotest.(check int) "points" 4 f.Fit.points;
  (match f.Fit.intercepts with
  | [ ("g", i) ] -> Alcotest.check feq "ln C" (log 2.) i
  | _ -> Alcotest.fail "expected one intercept for group g");
  List.iter
    (fun r -> Alcotest.check feq "residual" 0. r)
    (Fit.residuals f pts);
  Alcotest.check feq "eval at 32" (2. *. (32. ** 1.5))
    (Fit.eval f ~group:"g" 32.)

let test_fit_noisy_exponent () =
  (* fixed multiplicative noise, as a seeded run would produce *)
  let noise = [ 1.12; 0.93; 1.06; 0.91; 1.04 ] in
  let pts =
    List.map2
      (fun x n -> { Fit.x; y = 0.01 *. (x ** 2.) *. n; group = "g" })
      [ 2.; 4.; 8.; 16.; 32. ] noise
  in
  let f = fit_exn (Fit.power_law ~strategy:"s" ~dimension:"nets" pts) in
  Alcotest.(check bool)
    "exponent near 2"
    (Float.abs (f.Fit.exponent -. 2.) < 0.2)
    true;
  Alcotest.(check bool) "r2 high" (f.Fit.r2 > 0.9) true

let test_fit_pooled_groups () =
  (* two groups with different constants but a common slope: the pooled
     fit must recover the slope exactly and one intercept per group *)
  let pts =
    points_of [ 2.; 4.; 8. ] (fun x -> 3. *. (x ** 2.)) "a"
    @ points_of [ 2.; 4.; 8. ] (fun x -> 100. *. (x ** 2.)) "b"
  in
  let f = fit_exn (Fit.power_law ~strategy:"s" ~dimension:"nets" pts) in
  Alcotest.check feq "exponent" 2. f.Fit.exponent;
  Alcotest.check feq "r2" 1. f.Fit.r2;
  Alcotest.(check int) "two intercepts" 2 (List.length f.Fit.intercepts);
  Alcotest.check feq "intercept a" (log 3.)
    (List.assoc "a" f.Fit.intercepts);
  Alcotest.check feq "intercept b" (log 100.)
    (List.assoc "b" f.Fit.intercepts)

let test_fit_degenerate () =
  let err = function
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "expected Error"
  in
  (* fewer than two points *)
  err (Fit.power_law ~strategy:"s" ~dimension:"d" []);
  err
    (Fit.power_law ~strategy:"s" ~dimension:"d"
       [ { Fit.x = 2.; y = 1.; group = "g" } ]);
  (* no group varies along the dimension: same x twice, and two
     single-point groups *)
  err
    (Fit.power_law ~strategy:"s" ~dimension:"d"
       [
         { Fit.x = 4.; y = 1.; group = "g" };
         { Fit.x = 4.; y = 2.; group = "g" };
       ]);
  err
    (Fit.power_law ~strategy:"s" ~dimension:"d"
       [
         { Fit.x = 2.; y = 1.; group = "g1" };
         { Fit.x = 4.; y = 2.; group = "g2" };
       ])

let test_fit_zero_times_clamped () =
  (* zero-second cells clamp to the microsecond floor instead of -inf:
     constant (clamped) times fit as slope 0 with r2 = 1 *)
  let pts = points_of [ 2.; 4.; 8. ] (fun _ -> 0.) "g" in
  let f = fit_exn (Fit.power_law ~strategy:"s" ~dimension:"d" pts) in
  Alcotest.check feq "flat" 0. f.Fit.exponent;
  Alcotest.check feq "r2 on zero variance" 1. f.Fit.r2;
  Alcotest.(check bool)
    "intercept at the clamp" true
    (Float.abs (List.assoc "g" f.Fit.intercepts -. log Fit.min_seconds)
    < 1e-9)

let test_fit_crossover () =
  let f1 =
    fit_exn
      (Fit.power_law ~strategy:"quad" ~dimension:"nets"
         (points_of [ 2.; 4.; 8. ] (fun x -> x ** 2.) "g"))
  in
  let f2 =
    fit_exn
      (Fit.power_law ~strategy:"lin" ~dimension:"nets"
         (points_of [ 2.; 4.; 8. ] (fun x -> 16. *. x) "g"))
  in
  (match Fit.crossover_of_fits f1 f2 with
  | Some at -> Alcotest.check (Alcotest.float 1e-6) "x^2 = 16x" 16. at
  | None -> Alcotest.fail "expected a crossover");
  (* parallel curves never cross *)
  let f3 =
    fit_exn
      (Fit.power_law ~strategy:"quad2" ~dimension:"nets"
         (points_of [ 2.; 4.; 8. ] (fun x -> 5. *. (x ** 2.)) "g"))
  in
  Alcotest.(check bool)
    "parallel -> None" true
    (Fit.crossover_of_fits f1 f3 = None)

(* ---------- Fit: the scaling document ---------- *)

let sample_fit ~strategy ~dimension ~exponent =
  {
    Fit.strategy;
    dimension;
    exponent;
    intercepts = [ ("g", -2.5) ];
    r2 = 0.95;
    points = 8;
    censored = 1;
  }

let sample_scaling () =
  {
    Fit.seed = 2008;
    family = "unsat";
    fits =
      [
        sample_fit ~strategy:"a" ~dimension:"nets" ~exponent:2.0;
        sample_fit ~strategy:"a" ~dimension:"grid" ~exponent:(-1.5);
      ];
    crossovers =
      [ { Fit.dimension = "nets"; slow = "a"; fast = "b"; at = 37.2 } ];
  }

let test_scaling_json_roundtrip () =
  let s = sample_scaling () in
  match Fit.of_string (Obs.Json.to_string (Fit.to_json s)) with
  | Error m -> Alcotest.fail m
  | Ok s' -> Alcotest.(check bool) "roundtrip" true (Fit.equal s s')

let test_scaling_file_roundtrip () =
  let s = sample_scaling () in
  let path = Filename.temp_file "fpgasat_scaling" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Fit.to_file path s;
      match Fit.of_file path with
      | Error m -> Alcotest.fail m
      | Ok s' -> Alcotest.(check bool) "roundtrip" true (Fit.equal s s'))

let test_scaling_schema_checked () =
  match Fit.of_string {|{"schema":"fpgasat.bench/1","seed":1}|} with
  | Ok _ -> Alcotest.fail "foreign schema accepted"
  | Error m ->
      Alcotest.(check bool)
        "names the schema" true
        (String.length m > 0)

let qcheck_scaling_roundtrip =
  let open QCheck2 in
  let gen_name = Gen.(string_size ~gen:printable (int_range 1 8)) in
  let gen_float =
    Gen.(
      map2 (fun neg f -> if neg then -.f else f) bool
        (float_bound_exclusive 1e6))
  in
  let gen_fit =
    Gen.(
      map
        (fun (s, d, e, ints, r2, pts, cens) ->
          {
            Fit.strategy = s;
            dimension = d;
            exponent = e;
            intercepts = ints;
            r2;
            points = pts;
            censored = cens;
          })
        (tup7 gen_name gen_name gen_float
           (list_size (int_range 1 3) (tup2 gen_name gen_float))
           gen_float nat nat))
  in
  let gen_crossover =
    Gen.(
      map
        (fun (d, slow, fast, at) -> { Fit.dimension = d; slow; fast; at })
        (tup4 gen_name gen_name gen_name (float_bound_exclusive 1e6)))
  in
  let gen_scaling =
    Gen.(
      map
        (fun (seed, family, fits, crossovers) ->
          { Fit.seed; family; fits; crossovers })
        (tup4 nat gen_name
           (list_size (int_range 0 3) gen_fit)
           (list_size (int_range 0 2) gen_crossover)))
  in
  QCheck2.Test.make ~count:200
    ~name:"fpgasat.scaling/1 JSON round-trips bit-exactly" gen_scaling
    (fun s ->
      match Fit.of_string (Obs.Json.to_string (Fit.to_json s)) with
      | Ok s' -> Fit.equal s s'
      | Error _ -> false)

(* ---------- Generator ---------- *)

let small_params =
  { Gen.default_params with Gen.grid = 5; nets = 32; width = 4 }

let test_generator_deterministic () =
  let a = Gen.build small_params Gen.Unroutable in
  let b = Gen.build small_params Gen.Unroutable in
  Alcotest.(check int)
    "vertices"
    (G.Graph.num_vertices a.Gen.graph)
    (G.Graph.num_vertices b.Gen.graph);
  Alcotest.(check (list (pair int int)))
    "edges" (G.Graph.edges a.Gen.graph) (G.Graph.edges b.Gen.graph);
  Alcotest.(check int) "clique" a.Gen.clique_bound b.Gen.clique_bound;
  Alcotest.(check int) "dsatur" a.Gen.dsatur_bound b.Gen.dsatur_bound;
  Alcotest.(check int) "solve width" a.Gen.solve_width b.Gen.solve_width

let test_generator_seed_changes_instance () =
  let a = Gen.build small_params Gen.Unroutable in
  let b =
    Gen.build { small_params with Gen.seed = small_params.Gen.seed + 1 }
      Gen.Unroutable
  in
  Alcotest.(check bool)
    "different seed, different conflicts" false
    (G.Graph.edges a.Gen.graph = G.Graph.edges b.Gen.graph)

let test_generator_name_roundtrip () =
  List.iter
    (fun (p, fam) ->
      match Gen.of_name (Gen.name p fam) with
      | Some (p', fam') ->
          Alcotest.(check bool) "params" true (p = p');
          Alcotest.(check bool) "family" true (fam = fam')
      | None -> Alcotest.fail ("unparsed: " ^ Gen.name p fam))
    [
      (Gen.default_params, Gen.Unroutable);
      (small_params, Gen.Routable);
      ({ Gen.grid = 1; nets = 1; width = 1; max_fanout = 1; locality = 0; seed = 0 },
       Gen.Unroutable);
    ];
  List.iter
    (fun s ->
      Alcotest.(check bool) ("rejects " ^ s) true (Gen.of_name s = None))
    [
      "alu2"; "gen"; "gen:g7:n48:w5:f3:l2:s2008"; "gen:g7:n48:w5:f3:l2:s2008:maybe";
      "gen:x7:n48:w5:f3:l2:s2008:unsat"; "gen:g-7:n48:w5:f3:l2:s2008:unsat";
      "gen:g7:n48:w5:f3:l2:s2008:unsat:extra"; "";
    ]

let test_generator_invalid_params_rejected () =
  List.iter
    (fun p ->
      match Gen.build p Gen.Unroutable with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected Invalid_argument")
    [
      { small_params with Gen.grid = 0 };
      { small_params with Gen.nets = 0 };
      { small_params with Gen.width = 0 };
      { small_params with Gen.max_fanout = 0 };
    ]

let certified_submit inst =
  Flow.(
    submit
      (default_request
      |> with_strategy C.Strategy.best_single
      |> with_budget (Fpgasat_sat.Solver.time_budget 60.)
      |> with_certify true))
    inst.Gen.route ~width:inst.Gen.solve_width

let test_generator_unroutable_certified () =
  let inst = Gen.build small_params Gen.Unroutable in
  Alcotest.(check bool)
    "provably unroutable" true
    (Gen.provably_unroutable inst);
  let run = certified_submit inst in
  (match run.Flow.outcome with
  | Flow.Unroutable -> ()
  | o -> Alcotest.fail ("expected unroutable, got " ^ Flow.outcome_name o));
  Alcotest.(check bool)
    "UNSAT certified through the DRAT checker" true
    (run.Flow.certified = Some true)

let test_generator_routable_certified () =
  let inst = Gen.build small_params Gen.Routable in
  let run = certified_submit inst in
  (match run.Flow.outcome with
  | Flow.Routable _ -> ()
  | o -> Alcotest.fail ("expected routable, got " ^ Flow.outcome_name o));
  Alcotest.(check bool)
    "SAT certified through the model + route checker" true
    (run.Flow.certified = Some true)

(* ---------- Dims ---------- *)

let test_dims_cells_cartesian () =
  let grid =
    {
      Dims.base = Gen.default_params;
      axes =
        [
          { Dims.dim = "grid"; values = [ 5; 7 ] };
          { Dims.dim = "nets"; values = [ 8; 16; 24 ] };
        ];
      family = Gen.Unroutable;
    }
  in
  let cells = Dims.cells grid in
  Alcotest.(check int) "2 x 3 cells" 6 (List.length cells);
  (* last axis fastest, base coordinates untouched *)
  (match cells with
  | first :: second :: _ ->
      Alcotest.(check int) "first grid" 5 first.Gen.grid;
      Alcotest.(check int) "first nets" 8 first.Gen.nets;
      Alcotest.(check int) "second nets" 16 second.Gen.nets;
      Alcotest.(check int)
        "width stays at base" Gen.default_params.Gen.width first.Gen.width
  | _ -> Alcotest.fail "expected cells");
  let invalid axes =
    match Dims.cells { grid with Dims.axes } with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  invalid [ { Dims.dim = "chips"; values = [ 1 ] } ];
  invalid
    [
      { Dims.dim = "nets"; values = [ 1 ] };
      { Dims.dim = "nets"; values = [ 2 ] };
    ];
  invalid [ { Dims.dim = "nets"; values = [] } ]

let test_dims_presets_identifiable () =
  (* every preset axis needs >= 2 values or its exponent could never be
     fitted; smoke must stay small enough for CI *)
  List.iter
    (fun (g : Dims.grid) ->
      List.iter
        (fun (a : Dims.axis) ->
          Alcotest.(check bool)
            ("axis " ^ a.Dims.dim ^ " identifiable")
            true
            (List.length a.Dims.values >= 2))
        g.Dims.axes)
    [ Dims.smoke; Dims.full ];
  Alcotest.(check int) "smoke is 2x2x2" 8 (List.length (Dims.cells Dims.smoke))

(* records for the pure analysis tests, built through the public schema *)
let mk_record ~benchmark ~strategy ~outcome ~solving =
  let line =
    Printf.sprintf
      {|{"schema":"fpgasat.run/1","benchmark":"%s","strategy":"%s","width":3,"outcome":"%s","timings":{"to_graph":0.0,"to_cnf":0.0,"solving":%.9f},"wall_seconds":%.9f,"cnf":{"vars":10,"clauses":20},"solver":{"decisions":1,"propagations":2,"conflicts":3,"restarts":0,"learnt_clauses":0,"learnt_literals":0,"deleted_clauses":0,"max_decision_level":1}}|}
      benchmark strategy outcome solving solving
  in
  match Run_record.of_line line with
  | Ok r -> r
  | Error m -> Alcotest.failf "record: %s" m

let gen_bench nets =
  Gen.name { Gen.default_params with Gen.nets } Gen.Unroutable

let quadratic_records strategy c =
  List.map
    (fun nets ->
      mk_record ~benchmark:(gen_bench nets) ~strategy ~outcome:"unroutable"
        ~solving:(c *. (float_of_int nets ** 2.)))
    [ 8; 16; 32 ]

let test_dims_analyze_recovers_exponent () =
  let records = quadratic_records "s" 0.001 in
  let doc = Dims.analyze records in
  Alcotest.(check int) "seed from records" 2008 doc.Fit.seed;
  Alcotest.(check string) "family" "unsat" doc.Fit.family;
  (* only nets varies: exactly one fit, exponent 2 *)
  (match doc.Fit.fits with
  | [ f ] ->
      Alcotest.(check string) "dimension" "nets" f.Fit.dimension;
      Alcotest.(check string) "strategy" "s" f.Fit.strategy;
      Alcotest.check feq "exponent" 2. f.Fit.exponent;
      Alcotest.(check int) "points" 3 f.Fit.points;
      Alcotest.(check int) "censored" 0 f.Fit.censored
  | fits -> Alcotest.failf "expected one fit, got %d" (List.length fits))

let test_dims_analyze_censors_timeouts () =
  let records =
    quadratic_records "s" 0.001
    @ [
        mk_record ~benchmark:(gen_bench 64) ~strategy:"s" ~outcome:"timeout"
          ~solving:120.;
      ]
  in
  let doc = Dims.analyze records in
  match doc.Fit.fits with
  | [ f ] ->
      (* the timeout cell is excluded from the fit, not entered at its
         budget value: the exponent stays exact *)
      Alcotest.check feq "exponent unchanged" 2. f.Fit.exponent;
      Alcotest.(check int) "points" 3 f.Fit.points;
      Alcotest.(check int) "censored counted" 1 f.Fit.censored
  | fits -> Alcotest.failf "expected one fit, got %d" (List.length fits)

let test_dims_analyze_ignores_foreign_records () =
  let records =
    mk_record ~benchmark:"alu2" ~strategy:"s" ~outcome:"unroutable"
      ~solving:999.
    :: quadratic_records "s" 0.001
  in
  let doc = Dims.analyze records in
  match doc.Fit.fits with
  | [ f ] -> Alcotest.check feq "alu2 ignored" 2. f.Fit.exponent
  | fits -> Alcotest.failf "expected one fit, got %d" (List.length fits)

let test_dims_analyze_crossover () =
  let records =
    quadratic_records "quad" 0.0001
    @ List.map
        (fun nets ->
          mk_record ~benchmark:(gen_bench nets) ~strategy:"lin"
            ~outcome:"unroutable"
            ~solving:(0.001 *. float_of_int nets))
        [ 8; 16; 32 ]
  in
  let doc = Dims.analyze records in
  Alcotest.(check int) "two fits" 2 (List.length doc.Fit.fits);
  match doc.Fit.crossovers with
  | [ c ] ->
      Alcotest.(check string) "slower strategy" "quad" c.Fit.slow;
      Alcotest.(check string) "faster strategy" "lin" c.Fit.fast;
      (* 0.0001 x^2 = 0.001 x at x = 10 *)
      Alcotest.check (Alcotest.float 1e-6) "crossing point" 10. c.Fit.at
  | cs -> Alcotest.failf "expected one crossover, got %d" (List.length cs)

let test_dims_analyze_deterministic () =
  let records =
    quadratic_records "a" 0.001 @ quadratic_records "b" 0.0001
  in
  Alcotest.(check bool)
    "same records, bit-identical document" true
    (Fit.equal (Dims.analyze records) (Dims.analyze records))

let test_dims_jobs_shape () =
  let grid =
    {
      Dims.base = small_params;
      axes = [ { Dims.dim = "nets"; values = [ 16; 24 ] } ];
      family = Gen.Unroutable;
    }
  in
  let strategies = [ C.Strategy.best_single; List.hd C.Strategy.paper_portfolio_2 ] in
  let jobs = Dims.jobs grid ~strategies in
  Alcotest.(check int) "cells x strategies" 4 (List.length jobs);
  List.iter
    (fun (j : Eng.Sweep.job) ->
      match Gen.of_name j.Eng.Sweep.benchmark with
      | None -> Alcotest.fail "job benchmark must parse back"
      | Some (p, fam) ->
          Alcotest.(check bool) "family" true (fam = Gen.Unroutable);
          let inst = Gen.build p fam in
          Alcotest.(check int)
            "width is the instance's solve width" inst.Gen.solve_width
            j.Eng.Sweep.width)
    jobs

let () =
  Alcotest.run "dims"
    [
      ( "fit",
        [
          Alcotest.test_case "exact exponent" `Quick test_fit_exact_exponent;
          Alcotest.test_case "noisy exponent" `Quick test_fit_noisy_exponent;
          Alcotest.test_case "pooled groups" `Quick test_fit_pooled_groups;
          Alcotest.test_case "degenerate inputs" `Quick test_fit_degenerate;
          Alcotest.test_case "zero times clamped" `Quick
            test_fit_zero_times_clamped;
          Alcotest.test_case "crossover" `Quick test_fit_crossover;
        ] );
      ( "scaling-doc",
        [
          Alcotest.test_case "json roundtrip" `Quick test_scaling_json_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick test_scaling_file_roundtrip;
          Alcotest.test_case "schema checked" `Quick test_scaling_schema_checked;
        ] );
      ( "generator",
        [
          Alcotest.test_case "deterministic" `Quick test_generator_deterministic;
          Alcotest.test_case "seed changes instance" `Quick
            test_generator_seed_changes_instance;
          Alcotest.test_case "name roundtrip" `Quick
            test_generator_name_roundtrip;
          Alcotest.test_case "invalid params rejected" `Quick
            test_generator_invalid_params_rejected;
          Alcotest.test_case "unroutable certified UNSAT" `Slow
            test_generator_unroutable_certified;
          Alcotest.test_case "routable certified SAT" `Slow
            test_generator_routable_certified;
        ] );
      ( "dims",
        [
          Alcotest.test_case "cells cartesian" `Quick test_dims_cells_cartesian;
          Alcotest.test_case "presets identifiable" `Quick
            test_dims_presets_identifiable;
          Alcotest.test_case "analyze recovers exponent" `Quick
            test_dims_analyze_recovers_exponent;
          Alcotest.test_case "analyze censors timeouts" `Quick
            test_dims_analyze_censors_timeouts;
          Alcotest.test_case "analyze ignores foreign records" `Quick
            test_dims_analyze_ignores_foreign_records;
          Alcotest.test_case "analyze finds crossovers" `Quick
            test_dims_analyze_crossover;
          Alcotest.test_case "analyze deterministic" `Quick
            test_dims_analyze_deterministic;
          Alcotest.test_case "jobs shape" `Quick test_dims_jobs_shape;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ qcheck_scaling_roundtrip ] );
    ]

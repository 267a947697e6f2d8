(* Tests for the experiment engine: the JSON codec, the bounded domain
   pool, the Run_record schema, sweeps (determinism, crash isolation,
   resume), the solver's interrupt poll interval, and portfolios. *)

module Sat = Fpgasat_sat
module G = Fpgasat_graph
module E = Fpgasat_encodings
module F = Fpgasat_fpga
module C = Fpgasat_core
module Eng = Fpgasat_engine
module Json = Fpgasat_obs.Json
module Pool = Eng.Pool
module Run_record = Eng.Run_record
module Sweep = Eng.Sweep
module P = Eng.Portfolio
module Strategy = C.Strategy
module Flow = C.Flow

(* a small instance shared by several tests *)
let small_route =
  let arch = F.Arch.create 5 in
  let rng = F.Rng.create 11 in
  let nl = F.Netlist.random ~rng ~arch ~num_nets:20 ~max_fanout:3 ~locality:2 in
  F.Global_router.route arch nl

let small_graph = F.Conflict_graph.build small_route
let small_ub = G.Greedy.upper_bound small_graph

(* ---------- Json ---------- *)

let roundtrip v =
  match Json.of_string (Json.to_string v) with
  | Ok v' -> v'
  | Error m -> Alcotest.fail ("reparse failed: " ^ m)

let check_roundtrip name v =
  Alcotest.(check bool) name true (Json.equal v (roundtrip v))

let test_json_roundtrip_basics () =
  check_roundtrip "null" Json.Null;
  check_roundtrip "bools" (Json.List [ Json.Bool true; Json.Bool false ]);
  check_roundtrip "ints"
    (Json.List [ Json.Int 0; Json.Int (-42); Json.Int max_int; Json.Int min_int ]);
  check_roundtrip "floats"
    (Json.List
       [ Json.Float 0.1; Json.Float 1e-300; Json.Float (-3.5); Json.Float 1e17 ]);
  check_roundtrip "strings"
    (Json.String "line\nbreak \"quoted\" back\\slash \t tab \001 ctrl");
  check_roundtrip "utf8 passthrough" (Json.String "électrique — ≥2×");
  check_roundtrip "nested"
    (Json.Obj
       [
         ("a", Json.List [ Json.Int 1; Json.Obj [ ("b", Json.Null) ] ]);
         ("empty-list", Json.List []);
         ("empty-obj", Json.Obj []);
       ])

let test_json_parse_details () =
  (match Json.of_string "{\"a\": 1e3}" with
  | Ok (Json.Obj [ ("a", Json.Float 1000.) ]) -> ()
  | Ok v -> Alcotest.fail ("unexpected parse: " ^ Json.to_string v)
  | Error m -> Alcotest.fail m);
  (* \u escapes, including a surrogate pair *)
  (match Json.of_string "\"\\u00e9\\ud83d\\ude00\"" with
  | Ok (Json.String s) ->
      Alcotest.(check string) "unicode escapes" "\xc3\xa9\xf0\x9f\x98\x80" s
  | Ok _ | Error _ -> Alcotest.fail "unicode escape parse failed");
  (* non-finite floats print as null *)
  Alcotest.(check string) "nan is null" "null" (Json.to_string (Json.Float Float.nan));
  (* errors *)
  let is_error s =
    match Json.of_string s with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool) "trailing garbage" true (is_error "1 2");
  Alcotest.(check bool) "torn object" true
    (is_error "{\"schema\":\"fpgasat.run/1\",\"bench");
  Alcotest.(check bool) "bad escape" true (is_error "\"\\q\"");
  Alcotest.(check bool) "lone surrogate" true (is_error "\"\\ud800\"")

let json_gen =
  let open QCheck2.Gen in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int;
        map (fun f -> Json.Float f) (float_range (-1e9) 1e9);
        map (fun s -> Json.String s) (string_size ~gen:printable (int_range 0 12));
      ]
  in
  let key = string_size ~gen:(char_range 'a' 'z') (int_range 1 6) in
  fix
    (fun self depth ->
      if depth = 0 then scalar
      else
        frequency
          [
            (3, scalar);
            (1, map (fun xs -> Json.List xs) (list_size (int_range 0 4) (self (depth - 1))));
            ( 1,
              map
                (fun kvs -> Json.Obj kvs)
                (list_size (int_range 0 4) (pair key (self (depth - 1)))) );
          ])
    3

let json_roundtrip_prop =
  QCheck2.Test.make ~count:500 ~name:"random JSON values roundtrip" json_gen
    (fun v ->
      match Json.of_string (Json.to_string v) with
      | Ok v' -> Json.equal v v'
      | Error _ -> false)

(* ---------- Pool ---------- *)

let test_pool_order_and_isolation () =
  let thunks = Array.init 23 (fun i () -> if i = 7 then failwith "boom" else i * i) in
  let results = Pool.map ~jobs:4 thunks in
  Array.iteri
    (fun i r ->
      match r with
      | Ok v -> Alcotest.(check int) "slot keeps input order" (i * i) v
      | Error e ->
          Alcotest.(check int) "only the raising slot errors" 7 i;
          Alcotest.(check bool) "error text kept" true
            (String.length e.Pool.message > 0);
          Alcotest.(check string) "exception class captured" "Failure"
            e.Pool.exn_class)
    results;
  (match results.(7) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "raising thunk must yield Error");
  (* jobs = 1 runs in the calling domain, sequentially *)
  let trace = ref [] in
  let thunks = Array.init 5 (fun i () -> trace := i :: !trace; i) in
  ignore (Pool.map ~jobs:1 thunks);
  Alcotest.(check (list int)) "sequential order" [ 0; 1; 2; 3; 4 ] (List.rev !trace)

let test_pool_progress_monotonic () =
  let seen = ref [] in
  let thunks = Array.init 12 (fun i () -> i) in
  ignore (Pool.map ~jobs:4 ~on_done:(fun n -> seen := n :: !seen) thunks);
  Alcotest.(check (list int)) "on_done counts 1..n" (List.init 12 (fun i -> i + 1))
    (List.rev !seen)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  n = 0 || at 0

(* ---------- Run_record ---------- *)

let sample_run width =
  Flow.(submit (default_request |> with_strategy Strategy.best_single))
    small_route ~width

let test_run_record_roundtrip () =
  List.iter
    (fun width ->
      let run = sample_run width in
      let r = Run_record.of_run ~benchmark:"small" ~wall_seconds:0.125 run in
      Alcotest.(check string) "key" ("small|" ^ Strategy.name Strategy.best_single
                                    ^ "|" ^ string_of_int width)
        (Run_record.key r);
      match Run_record.of_line (Run_record.to_line r) with
      | Ok r' ->
          Alcotest.(check bool) "roundtrip equal" true (Run_record.equal r r')
      | Error m -> Alcotest.fail m)
    [ small_ub; 1 ]

let test_run_record_crashed_roundtrip () =
  let r =
    Run_record.crashed ~benchmark:"b" ~strategy:"muldirect/none@siege" ~width:3
      ~wall_seconds:0.5 "Failure(\"boom\")"
  in
  Alcotest.(check string) "outcome name" "crashed"
    (Run_record.outcome_name r.Run_record.outcome);
  Alcotest.(check bool) "not decisive" false (Run_record.decisive r);
  match Run_record.of_line (Run_record.to_line r) with
  | Ok r' -> Alcotest.(check bool) "roundtrip equal" true (Run_record.equal r r')
  | Error m -> Alcotest.fail m

let test_run_record_ignores_unknown_keys () =
  let r = Run_record.of_run ~benchmark:"x" ~wall_seconds:1. (sample_run small_ub) in
  let line = Run_record.to_line r in
  (* splice an extra key after the opening brace: forward compatibility *)
  let extended =
    "{\"future_key\":[1,2,3]," ^ String.sub line 1 (String.length line - 1)
  in
  match Run_record.of_line extended with
  | Ok r' -> Alcotest.(check bool) "unknown keys ignored" true (Run_record.equal r r')
  | Error m -> Alcotest.fail m

let test_run_record_rejects_garbage () =
  let is_error s =
    match Run_record.of_line s with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool) "not json" true (is_error "nonsense");
  Alcotest.(check bool) "missing fields" true (is_error "{\"benchmark\":\"x\"}");
  Alcotest.(check bool) "torn line" true
    (let line = Run_record.to_line
         (Run_record.of_run ~benchmark:"x" ~wall_seconds:1. (sample_run small_ub))
     in
     is_error (String.sub line 0 (String.length line / 2)))

(* ---------- Sweep ---------- *)

let sweep_strategies =
  [ Strategy.best_single;
    (match Strategy.of_name "muldirect/b1@minisat" with
    | Ok s -> s
    | Error m -> failwith m) ]

let sweep_jobs () =
  List.concat_map
    (fun width ->
      List.map
        (fun s -> Sweep.cell ~benchmark:"small" s small_route ~width)
        sweep_strategies)
    [ small_ub; max 1 (small_ub - 1) ]

let no_io = { Sweep.default_config with Sweep.out = None; on_progress = None }

let test_sweep_deterministic_across_jobs () =
  let r1 = Sweep.run { no_io with Sweep.jobs = 1 } (sweep_jobs ()) in
  let r8 = Sweep.run { no_io with Sweep.jobs = 8 } (sweep_jobs ()) in
  Alcotest.(check int) "same cell count" (List.length r1) (List.length r8);
  List.iter2
    (fun (a : Run_record.t) (b : Run_record.t) ->
      (* identical modulo wall-clock noise: timings and wall_seconds vary,
         everything the solver computes must not *)
      Alcotest.(check string) "key" (Run_record.key a) (Run_record.key b);
      Alcotest.(check string) "outcome"
        (Run_record.outcome_name a.Run_record.outcome)
        (Run_record.outcome_name b.Run_record.outcome);
      Alcotest.(check int) "cnf vars" a.Run_record.cnf_vars b.Run_record.cnf_vars;
      Alcotest.(check int) "cnf clauses" a.Run_record.cnf_clauses
        b.Run_record.cnf_clauses;
      (* peak_heap_words is a GC observation, not a solver result: it
         legitimately varies with how many domains share the heap *)
      Alcotest.(check bool) "solver stats" true
        ({ a.Run_record.stats with Sat.Stats.peak_heap_words = 0 }
        = { b.Run_record.stats with Sat.Stats.peak_heap_words = 0 }))
    r1 r8

let test_sweep_crash_isolated () =
  let crash =
    {
      Sweep.benchmark = "small";
      strategy = "crash-strategy";
      width = 2;
      run = (fun ~budget:_ ~certify:_ ~telemetry:_ ~fallback:_ -> failwith "deliberate crash");
    }
  in
  let jobs = [ List.hd (sweep_jobs ()); crash; List.nth (sweep_jobs ()) 1 ] in
  let records = Sweep.run { no_io with Sweep.jobs = 2 } jobs in
  Alcotest.(check int) "all three cells reported" 3 (List.length records);
  (match (List.nth records 1).Run_record.outcome with
  | Run_record.Crashed m ->
      Alcotest.(check bool) "crash message kept" true
        (String.length m > 0)
  | _ -> Alcotest.fail "crashing job must produce a Crashed record");
  List.iter
    (fun i ->
      Alcotest.(check bool) "neighbours unaffected" true
        (match (List.nth records i).Run_record.outcome with
        | Run_record.Routable | Run_record.Unroutable -> true
        | Run_record.Timeout | Run_record.Memout | Run_record.Crashed _ ->
            false))
    [ 0; 2 ]

let with_temp_file f =
  let path = Filename.temp_file "fpgasat_test" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let counting_jobs counter =
  List.map
    (fun (j : Sweep.job) ->
      {
        j with
        Sweep.run =
          (fun ~budget ~certify ~telemetry ~fallback ->
            Atomic.incr counter;
            j.Sweep.run ~budget ~certify ~telemetry ~fallback);
      })
    (sweep_jobs ())

let test_sweep_resume_skips_completed () =
  with_temp_file (fun path ->
      let counter = Atomic.make 0 in
      let config =
        { no_io with Sweep.jobs = 2; out = Some path; resume = true }
      in
      let first = Sweep.run config (counting_jobs counter) in
      let ran_first = Atomic.get counter in
      Alcotest.(check int) "every cell executed once" (List.length first) ran_first;
      (* the file now holds every record: a rerun must solve nothing *)
      let progress = ref [] in
      let second =
        Sweep.run
          { config with Sweep.on_progress = Some (fun p -> progress := p :: !progress) }
          (counting_jobs counter)
      in
      Alcotest.(check int) "no cell re-solved" ran_first (Atomic.get counter);
      Alcotest.(check int) "all cells returned" (List.length first)
        (List.length second);
      List.iter2
        (fun a b ->
          Alcotest.(check bool) "records come from the file" true
            (Run_record.equal a b))
        first second;
      match !progress with
      | [] -> Alcotest.fail "progress callback never fired"
      | p :: _ ->
          Alcotest.(check int) "all skipped" (List.length first) p.Sweep.skipped)

let test_sweep_resume_tolerates_torn_line () =
  with_temp_file (fun path ->
      let counter = Atomic.make 0 in
      let config =
        { no_io with Sweep.jobs = 1; out = Some path; resume = true }
      in
      let first = Sweep.run config (counting_jobs counter) in
      let ran_first = Atomic.get counter in
      (* simulate a kill mid-write: drop the final record's tail *)
      let lines = String.split_on_char '\n' (In_channel.with_open_text path In_channel.input_all) in
      let lines = List.filter (fun l -> String.trim l <> "") lines in
      let torn =
        match List.rev lines with
        | last :: rest ->
            List.rev (String.sub last 0 (String.length last / 2) :: rest)
        | [] -> Alcotest.fail "sweep wrote nothing"
      in
      Out_channel.with_open_text path (fun oc ->
          List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) torn);
      let _, bad = Sweep.load path in
      Alcotest.(check int) "torn line detected" 1 bad;
      let second = Sweep.run config (counting_jobs counter) in
      Alcotest.(check int) "exactly the torn cell re-ran" (ran_first + 1)
        (Atomic.get counter);
      Alcotest.(check int) "full result set" (List.length first)
        (List.length second))

(* The retry ladder honours the budget on every rung. Attempts 3 and later
   rerun the minisat preset under the escalated budget (0.2, 0.4 and 0.8 s
   here), so a cell that times out everywhere still ends in a few seconds
   and writes its record. A rung that never polls the wall clock, as plain
   DPLL did not, ran this cell for over a minute with no record. *)
let test_sweep_fallback_ladder_honours_budget () =
  let alu4 = F.Benchmarks.build (Option.get (F.Benchmarks.find "alu4")) in
  let strategy =
    match Strategy.of_name "muldirect/none@siege" with
    | Ok s -> s
    | Error m -> Alcotest.fail m
  in
  let out = Filename.temp_file "fpgasat-ladder" ".jsonl" in
  Sys.remove out;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists out then Sys.remove out)
    (fun () ->
      let t0 = Unix.gettimeofday () in
      let records =
        Sweep.run
          {
            Sweep.default_config with
            Sweep.jobs = 1;
            budget_seconds = Some 0.2;
            out = Some out;
            retry =
              { Sweep.max_attempts = 3; escalation = 2.0; fallback_presets = true };
          }
          [
            Sweep.cell ~benchmark:"alu4" strategy alu4.F.Benchmarks.route
              ~width:8;
          ]
      in
      let elapsed = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool)
        (Printf.sprintf "ended within 5 s (%.2f s)" elapsed)
        true (elapsed < 5.);
      (match records with
      | [ r ] ->
          Alcotest.(check (option int)) "three attempts" (Some 3)
            r.Run_record.attempts
      | _ -> Alcotest.fail "expected one record");
      let lines =
        In_channel.with_open_text out In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> String.trim l <> "")
      in
      Alcotest.(check int) "record written" 1 (List.length lines))

(* A width search that runs out of budget is a refused input: the CLI names
   the benchmark and exits with cmdliner's error status, never with an
   uncaught exception (125). *)
let test_cli_width_search_out_of_budget () =
  let err = Filename.temp_file "fpgasat-cli" ".err" in
  Fun.protect
    ~finally:(fun () -> Sys.remove err)
    (fun () ->
      let fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
      let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
      let exe =
        Filename.concat
          (Filename.dirname Sys.executable_name)
          "../bin/fpgasat.exe"
      in
      let pid =
        Unix.create_process exe
          [| "fpgasat"; "sweep"; "--benchmarks"; "C880"; "--budget"; "0.001" |]
          Unix.stdin null fd
      in
      Unix.close fd;
      Unix.close null;
      let _, status = Unix.waitpid [] pid in
      let message = In_channel.with_open_text err In_channel.input_all in
      Alcotest.(check bool)
        (Printf.sprintf "exit 124 (stderr: %s)" (String.trim message))
        true
        (status = Unix.WEXITED 124);
      let contains s sub =
        let n = String.length sub in
        let rec at i =
          i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
        in
        at 0
      in
      Alcotest.(check bool) "names the benchmark" true
        (contains message "width search failed on C880"))

let test_sweep_budget_times_out () =
  (* a job that never finishes unless the deadline interrupt fires *)
  let spin =
    {
      Sweep.benchmark = "spin";
      strategy = "spin";
      width = 1;
      run =
        (fun ~budget ~certify:_ ~telemetry:_ ~fallback:_ ->
          (match budget.Sat.Solver.interrupt with
          | Some f ->
              (* deadline is wall-clock: poll until it passes *)
              while not (f ()) do
                Unix.sleepf 0.005
              done
          | None -> Alcotest.fail "no deadline interrupt installed");
          {
            Flow.outcome = Flow.Timeout;
            timings = { Flow.to_graph = 0.; to_cnf = 0.; solving = 0. };
            width = 1;
            strategy = Strategy.best_single;
            cnf_vars = 0;
            cnf_clauses = 0;
            solver_stats = Sat.Stats.create ();
            proof = None;
            certified = None;
            telemetry = None;
          })
    }
  in
  let records =
    Sweep.run { no_io with Sweep.jobs = 1; budget_seconds = Some 0.05 } [ spin ]
  in
  match (List.hd records).Run_record.outcome with
  | Run_record.Timeout -> ()
  | _ -> Alcotest.fail "budgeted spin job must time out"

let test_sweep_certify_records_certified () =
  (* acceptance criterion: sweep --certify --jobs 4 records certified: true
     for every decisive cell *)
  let records =
    Sweep.run { no_io with Sweep.jobs = 4; certify = true } (sweep_jobs ())
  in
  List.iter
    (fun (r : Run_record.t) ->
      match r.Run_record.outcome with
      | Run_record.Routable | Run_record.Unroutable ->
          Alcotest.(check (option bool))
            ("certified " ^ Run_record.key r)
            (Some true) r.Run_record.certified
      | Run_record.Timeout | Run_record.Memout | Run_record.Crashed _ ->
          Alcotest.(check (option bool)) "indecisive cells carry no flag" None
            r.Run_record.certified)
    records;
  Alcotest.(check bool) "summary reports certification" true
    (contains ~needle:"certified" (Sweep.summary records))

let test_certified_record_json () =
  let run =
    Flow.(
      submit
        (default_request
        |> with_strategy Strategy.best_single
        |> with_certify true))
      small_route ~width:small_ub
  in
  let r = Run_record.of_run ~benchmark:"small" ~wall_seconds:0.25 run in
  Alcotest.(check (option bool)) "certified in the record" (Some true)
    r.Run_record.certified;
  let line = Run_record.to_line r in
  Alcotest.(check bool) "serialised" true
    (contains ~needle:"\"certified\":true" line);
  (match Run_record.of_line line with
  | Ok r' -> Alcotest.(check bool) "roundtrip equal" true (Run_record.equal r r')
  | Error m -> Alcotest.fail m);
  (* no certification requested -> key absent, parses back as None *)
  let plain =
    Run_record.of_run ~benchmark:"small" ~wall_seconds:0.25
      (sample_run small_ub)
  in
  Alcotest.(check bool) "absent when not requested" false
    (contains ~needle:"certified" (Run_record.to_line plain))

(* ---------- wall-clock timing ---------- *)

(* The timing buckets must be wall clock, not process CPU time: a busy
   domain running concurrently must not inflate them. Pre-fix (Sys.time),
   the buckets of a run racing a spinner measured the spinner's CPU too and
   summed to ~2x the enclosing wall interval on a multi-core machine; with
   wall clock they are sub-intervals of it. *)
let test_timings_are_wall_clock () =
  let stop = Atomic.make false in
  let spinner =
    Domain.spawn (fun () ->
        let junk = ref 0 in
        while not (Atomic.get stop) do
          for i = 0 to 9_999 do
            junk := !junk + i
          done
        done;
        !junk)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      ignore (Domain.join spinner))
    (fun () ->
      let t0 = Unix.gettimeofday () in
      let run = sample_run (max 1 (small_ub - 1)) in
      let outer_wall = Unix.gettimeofday () -. t0 in
      let buckets = Flow.total run.Flow.timings in
      Alcotest.(check bool)
        (Printf.sprintf "buckets (%.4fs) within the wall interval (%.4fs)"
           buckets outer_wall)
        true
        (buckets <= (outer_wall *. 1.5) +. 0.05))

let test_sweep_solving_time_independent_of_jobs () =
  (* satellite regression test: per-cell solving times from a --jobs 4
     sweep must be within noise of --jobs 1 on the same fixed cells *)
  let solving records =
    List.map
      (fun (r : Run_record.t) -> r.Run_record.timings.Flow.solving)
      records
  in
  let r1 = Sweep.run { no_io with Sweep.jobs = 1 } (sweep_jobs ()) in
  let r4 = Sweep.run { no_io with Sweep.jobs = 4 } (sweep_jobs ()) in
  List.iter2
    (fun s1 s4 ->
      Alcotest.(check bool)
        (Printf.sprintf "solving %.4fs vs %.4fs within noise" s1 s4)
        true
        (s4 <= (3. *. s1) +. 0.05 && s1 <= (3. *. s4) +. 0.05))
    (solving r1) (solving r4)

let test_sweep_render_table_is_a_view () =
  let records = Sweep.run { no_io with Sweep.jobs = 1 } (sweep_jobs ()) in
  let table = Sweep.render_table records in
  List.iter
    (fun s ->
      let name = Strategy.name s in
      Alcotest.(check bool) ("column " ^ name) true (contains ~needle:name table))
    sweep_strategies;
  let summary = Sweep.summary records in
  Alcotest.(check bool) "summary counts cells" true
    (String.length summary > 0
    && String.sub summary 0 1 = string_of_int (List.length records))

(* ---------- solver poll interval ---------- *)

let unsat_cnf () =
  (* an unroutable-width CSP gives a small UNSAT formula with conflicts *)
  let k = max 1 (small_ub - 1) in
  let csp = E.Csp.make small_graph ~k in
  let enc =
    match E.Encoding.of_name "muldirect" with Ok e -> e | Error m -> failwith m
  in
  (E.Csp_encode.encode enc csp).E.Csp_encode.cnf

let interrupt_calls ~poll_every cnf =
  let calls = ref 0 in
  let budget =
    Sat.Solver.with_poll_interval poll_every
      (Sat.Solver.interruptible
         (fun () -> incr calls; false)
         Sat.Solver.no_budget)
  in
  (match Sat.Solver.solve ~budget cnf with
  | Sat.Solver.Unsat, _ -> ()
  | _ -> Alcotest.fail "formula should be UNSAT");
  !calls

let test_poll_interval_bounds_hook_calls () =
  let cnf = unsat_cnf () in
  let every_conflict = interrupt_calls ~poll_every:1 cnf in
  let coarse = interrupt_calls ~poll_every:1_000_000 cnf in
  Alcotest.(check bool) "hook fires when polled every conflict" true
    (every_conflict > 0);
  Alcotest.(check bool) "coarse polling calls the hook less" true
    (coarse < every_conflict);
  (* clamping: 0 behaves like 1 *)
  Alcotest.(check int) "poll interval clamps to 1" every_conflict
    (interrupt_calls ~poll_every:0 cnf)

(* ---------- Strategy registry roundtrip ---------- *)

let strategy_gen =
  let open QCheck2.Gen in
  let* encoding = oneofl E.Registry.all in
  let* symmetry = oneofl [ None; Some E.Symmetry.B1; Some E.Symmetry.S1 ] in
  let* solver = oneofl [ `Siege_like; `Minisat_like ] in
  return (Strategy.make ?symmetry ~solver encoding)

let strategy_roundtrip_prop =
  QCheck2.Test.make ~count:200
    ~name:"Strategy.of_name inverts Strategy.name over the registry"
    strategy_gen
    (fun s ->
      match Strategy.of_name (Strategy.name s) with
      | Ok s' -> String.equal (Strategy.name s) (Strategy.name s')
      | Error _ -> false)

(* ---------- Portfolio ---------- *)

let test_portfolio_members_agree () =
  let width = max 1 (small_ub - 1) in
  let p = P.run Strategy.paper_portfolio_3 small_route ~width in
  Alcotest.(check int) "all members ran" 3 (List.length p.P.members);
  let verdicts =
    List.filter_map
      (fun m ->
        match m.P.run.Flow.outcome with
        | Flow.Routable _ -> Some true
        | Flow.Unroutable -> Some false
        | Flow.Timeout | Flow.Memout -> None)
      p.P.members
  in
  match verdicts with
  | [] -> Alcotest.fail "no decisive members"
  | v :: rest -> List.iter (fun v' -> Alcotest.(check bool) "agree" v v') rest

let test_portfolio_parallel () =
  let width = max 1 (small_ub - 1) in
  let p = P.run Strategy.paper_portfolio_2 small_route ~width in
  Alcotest.(check int) "two members" 2 (List.length p.P.members);
  match p.P.winner with
  | None -> Alcotest.fail "parallel portfolio found no answer"
  | Some w -> (
      match w.P.run.Flow.outcome with
      | Flow.Routable d ->
          Alcotest.(check bool) "verified routing" true
            (Array.length d.F.Detailed_route.tracks > 0)
      | Flow.Unroutable -> ()
      | Flow.Timeout | Flow.Memout ->
          Alcotest.fail "winner cannot be a timeout")

let test_portfolio_empty_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Portfolio.run: empty")
    (fun () -> ignore (P.run [] small_route ~width:2))

(* ---------- suite ---------- *)

let qtests =
  List.map QCheck_alcotest.to_alcotest [ json_roundtrip_prop; strategy_roundtrip_prop ]

let () =
  Alcotest.run "engine"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip basics" `Quick test_json_roundtrip_basics;
          Alcotest.test_case "parse details" `Quick test_json_parse_details;
        ] );
      ( "pool",
        [
          Alcotest.test_case "order + crash isolation" `Quick
            test_pool_order_and_isolation;
          Alcotest.test_case "progress monotonic" `Quick test_pool_progress_monotonic;
        ] );
      ( "run-record",
        [
          Alcotest.test_case "roundtrip" `Quick test_run_record_roundtrip;
          Alcotest.test_case "crashed roundtrip" `Quick
            test_run_record_crashed_roundtrip;
          Alcotest.test_case "unknown keys ignored" `Quick
            test_run_record_ignores_unknown_keys;
          Alcotest.test_case "garbage rejected" `Quick test_run_record_rejects_garbage;
          Alcotest.test_case "certified json" `Quick test_certified_record_json;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "deterministic across jobs" `Quick
            test_sweep_deterministic_across_jobs;
          Alcotest.test_case "crash isolated" `Quick test_sweep_crash_isolated;
          Alcotest.test_case "resume skips completed" `Quick
            test_sweep_resume_skips_completed;
          Alcotest.test_case "resume tolerates torn line" `Quick
            test_sweep_resume_tolerates_torn_line;
          Alcotest.test_case "budget times out" `Quick test_sweep_budget_times_out;
          Alcotest.test_case "fallback ladder honours the budget" `Quick
            test_sweep_fallback_ladder_honours_budget;
          Alcotest.test_case "width search out of budget is a CLI error" `Quick
            test_cli_width_search_out_of_budget;
          Alcotest.test_case "certify records certified" `Quick
            test_sweep_certify_records_certified;
          Alcotest.test_case "table is a view" `Quick test_sweep_render_table_is_a_view;
        ] );
      ( "wall-clock",
        [
          Alcotest.test_case "timings are wall clock" `Quick
            test_timings_are_wall_clock;
          Alcotest.test_case "solving time independent of jobs" `Quick
            test_sweep_solving_time_independent_of_jobs;
        ] );
      ( "solver-budget",
        [
          Alcotest.test_case "poll interval bounds hook calls" `Quick
            test_poll_interval_bounds_hook_calls;
        ] );
      ( "portfolio",
        [
          Alcotest.test_case "members agree" `Quick test_portfolio_members_agree;
          Alcotest.test_case "parallel" `Quick test_portfolio_parallel;
          Alcotest.test_case "empty rejected" `Quick test_portfolio_empty_rejected;
        ] );
      ("properties", qtests);
    ]

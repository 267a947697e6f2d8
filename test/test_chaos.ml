(* Tests for the fault-tolerant supervisor: memory budgets, the failure
   taxonomy, retry escalation with the preset fallback ladder, quarantine
   and resume semantics, the advisory results lock, and the deterministic
   chaos harness that injects faults behind the job interface. *)

module Sat = Fpgasat_sat
module G = Fpgasat_graph
module E = Fpgasat_encodings
module F = Fpgasat_fpga
module C = Fpgasat_core
module Eng = Fpgasat_engine
module Run_record = Eng.Run_record
module Sweep = Eng.Sweep
module Chaos = Eng.Chaos
module Failure = Eng.Failure
module Strategy = C.Strategy
module Flow = C.Flow

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* the same small instance the engine tests use *)
let small_route =
  let arch = F.Arch.create 5 in
  let rng = F.Rng.create 11 in
  let nl = F.Netlist.random ~rng ~arch ~num_nets:20 ~max_fanout:3 ~locality:2 in
  F.Global_router.route arch nl

let small_graph = F.Conflict_graph.build small_route
let small_ub = G.Greedy.upper_bound small_graph
let unsat_width = max 1 (small_ub - 1)

(* UNSAT cells force the solver through conflicts, which is where budget
   polls (and therefore every hook-based fault) happen. Distinct benchmark
   labels keep the cell keys unique. *)
let unsat_cell name =
  Sweep.cell ~benchmark:name Strategy.best_single small_route ~width:unsat_width

let unsat_cells n = List.init n (fun i -> unsat_cell (Printf.sprintf "c%d" i))

let no_io = { Sweep.default_config with Sweep.out = None; on_progress = None }

let heap_mb () =
  (Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8) / (1024 * 1024)

let unsat_cnf () =
  let csp = E.Csp.make small_graph ~k:unsat_width in
  let enc =
    match E.Encoding.of_name "muldirect" with Ok e -> e | Error m -> failwith m
  in
  (E.Csp_encode.encode enc csp).E.Csp_encode.cnf

let with_temp_file f =
  let path = Filename.temp_file "fpgasat_chaos" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; path ^ ".lock" ])
    (fun () -> f path)

(* ---------- solver memory budget ---------- *)

let test_solver_memout () =
  (* 8 MB of live ballast (large arrays are allocated straight on the major
     heap) guarantees the 1 MB ceiling trips at the first poll *)
  let ballast = Array.make (1024 * 1024) 0 in
  let budget =
    Sat.Solver.with_poll_interval 1 (Sat.Solver.memory_budget 1)
  in
  Fun.protect
    ~finally:(fun () -> ignore (Sys.opaque_identity ballast.(0)))
    (fun () ->
      (match Sat.Solver.solve ~budget (unsat_cnf ()) with
      | Sat.Solver.Memout, _ -> ()
      | Sat.Solver.Sat _, _ -> Alcotest.fail "formula is UNSAT"
      | Sat.Solver.Unsat, _ ->
          Alcotest.fail "1 MB ceiling must end the search as Memout"
      | Sat.Solver.Unknown, _ ->
          Alcotest.fail "memout must not report Unknown");
      (* same ceiling through the incremental interface *)
      let s = Sat.Solver.create (unsat_cnf ()) in
      match Sat.Solver.solve_with ~budget s with
      | Sat.Solver.Q_memout -> ()
      | _ -> Alcotest.fail "incremental query must report Q_memout")

let test_solver_memout_unbounded_is_unchanged () =
  (* a generous ceiling never fires: the answer matches the unbudgeted run *)
  let budget =
    Sat.Solver.with_poll_interval 1
      (Sat.Solver.memory_budget (heap_mb () + 4096))
  in
  match Sat.Solver.solve ~budget (unsat_cnf ()) with
  | Sat.Solver.Unsat, _ -> ()
  | _ -> Alcotest.fail "ceiling far above the heap must not change the answer"

let test_hook_exception_is_interrupt () =
  (* satellite contract: a raising interrupt hook ends the search as
     Unknown (interrupt fired); the exception never escapes as a crash *)
  let budget =
    Sat.Solver.with_poll_interval 1
      (Sat.Solver.interruptible
         (fun () -> failwith "hook blew up")
         Sat.Solver.no_budget)
  in
  match Sat.Solver.solve ~budget (unsat_cnf ()) with
  | Sat.Solver.Unknown, _ -> ()
  | exception _ -> Alcotest.fail "hook exception escaped the solver"
  | _ -> Alcotest.fail "raising hook must end the search as Unknown"

(* ---------- failure taxonomy ---------- *)

let test_failure_taxonomy () =
  Alcotest.(check (option string)) "decisive outcomes are not failures" None
    (Option.map Failure.name (Failure.of_outcome Flow.Unroutable));
  Alcotest.(check (option string)) "timeout tag" (Some "timeout")
    (Option.map Failure.name (Failure.of_outcome Flow.Timeout));
  Alcotest.(check (option string)) "memout tag" (Some "memout")
    (Option.map Failure.name (Failure.of_outcome Flow.Memout));
  let crash = Failure.of_exn (Stdlib.Failure "boom") in
  Alcotest.(check string) "crash tag carries the class" "crash:Failure"
    (Failure.name crash);
  Alcotest.(check bool) "crash message kept" true
    (contains ~needle:"boom" (Failure.message crash));
  Alcotest.(check bool) "timeout is transient" true
    (Failure.transient Failure.Timeout);
  Alcotest.(check bool) "memout is transient" true
    (Failure.transient Failure.Memout);
  Alcotest.(check bool) "crash is not transient" false
    (Failure.transient crash)

(* ---------- sweep: memout, retry, quarantine, resume, lock ---------- *)

let test_sweep_memout_recorded () =
  let records =
    Sweep.run
      { no_io with Sweep.jobs = 1; max_memory_mb = Some 1; poll_every = 1 }
      [ unsat_cell "memcell" ]
  in
  let r = List.hd records in
  (match r.Run_record.outcome with
  | Run_record.Memout -> ()
  | o ->
      Alcotest.fail
        ("1 MB sweep ceiling must memout, got " ^ Run_record.outcome_name o));
  Alcotest.(check (option string)) "classified" (Some "memout")
    r.Run_record.failure;
  Alcotest.(check bool) "single-attempt sweeps never quarantine" false
    r.Run_record.quarantined;
  Alcotest.(check (option int)) "no attempts key without retries" None
    r.Run_record.attempts;
  (* the record round-trips with its new optional keys *)
  match Run_record.of_line (Run_record.to_line r) with
  | Ok r' ->
      Alcotest.(check bool) "memout record roundtrips" true
        (Run_record.equal r r')
  | Error m -> Alcotest.fail m

let flow_timeout_run width =
  {
    Flow.outcome = Flow.Timeout;
    timings = { Flow.to_graph = 0.; to_cnf = 0.; solving = 0. };
    width;
    strategy = Strategy.best_single;
    cnf_vars = 0;
    cnf_clauses = 0;
    solver_stats = Sat.Stats.create ();
    proof = None;
    certified = None;
    telemetry = None;
  }

let test_retry_walks_fallback_ladder () =
  (* the primary attempt and the first minisat attempt time out; attempt 3
     reruns the minisat rung under the escalated budget and answers. The
     record must be decisive, show three attempts, and keep the cell's own
     strategy name so resume keys stay stable. *)
  let rungs = ref [] in
  let job =
    {
      Sweep.benchmark = "ladder";
      strategy = "ladder-strategy";
      width = unsat_width;
      run =
        (fun ~budget ~certify ~telemetry ~fallback ->
          rungs := Sweep.fallback_name fallback :: !rungs;
          match fallback with
          | Sweep.Primary -> flow_timeout_run unsat_width
          | Sweep.Fallback_minisat when List.length !rungs = 2 ->
              flow_timeout_run unsat_width
          | Sweep.Fallback_minisat ->
              Flow.(
                submit
                  (default_request
                  |> with_strategy Strategy.best_single
                  |> with_budget budget |> with_certify certify
                  |> with_telemetry telemetry))
                small_route ~width:unsat_width);
    }
  in
  let config =
    {
      no_io with
      Sweep.jobs = 1;
      retry =
        { Sweep.max_attempts = 3; escalation = 1.5; fallback_presets = true };
    }
  in
  let r = List.hd (Sweep.run config [ job ]) in
  Alcotest.(check (list string)) "ladder order"
    [ "primary"; "minisat"; "minisat" ]
    (List.rev !rungs);
  Alcotest.(check bool) "fallback answered decisively" true
    (Run_record.decisive r);
  Alcotest.(check (option int)) "attempts counted" (Some 3)
    r.Run_record.attempts;
  Alcotest.(check string) "record keeps the cell's strategy" "ladder-strategy"
    r.Run_record.strategy;
  Alcotest.(check (option string)) "decisive cells carry no failure" None
    r.Run_record.failure

let crash_job counter =
  {
    Sweep.benchmark = "always-crashes";
    strategy = "crash";
    width = 1;
    run =
      (fun ~budget:_ ~certify:_ ~telemetry:_ ~fallback:_ ->
        Atomic.incr counter;
        failwith "deterministic bug");
  }

let test_quarantine_skipped_on_resume () =
  with_temp_file (fun path ->
      let counter = Atomic.make 0 in
      let config =
        {
          no_io with
          Sweep.jobs = 1;
          out = Some path;
          resume = true;
          retry =
            {
              Sweep.max_attempts = 2;
              escalation = 2.0;
              fallback_presets = false;
            };
        }
      in
      let first = Sweep.run config [ crash_job counter ] in
      Alcotest.(check int) "both attempts ran" 2 (Atomic.get counter);
      let r = List.hd first in
      (match r.Run_record.outcome with
      | Run_record.Crashed _ -> ()
      | _ -> Alcotest.fail "deterministic crash must record Crashed");
      Alcotest.(check bool) "exhausted cell quarantined" true
        r.Run_record.quarantined;
      Alcotest.(check (option string)) "crash classified"
        (Some "crash:Failure") r.Run_record.failure;
      Alcotest.(check (option int)) "attempts recorded" (Some 2)
        r.Run_record.attempts;
      (* resume must trust the quarantine record instead of crash-looping *)
      let second = Sweep.run config [ crash_job counter ] in
      Alcotest.(check int) "quarantined cell not re-run" 2 (Atomic.get counter);
      Alcotest.(check bool) "record served from the file" true
        (Run_record.equal r (List.hd second)))

let test_retrying_resume_reruns_plain_failures () =
  with_temp_file (fun path ->
      (* a single-attempt sweep records a plain (unquarantined) timeout *)
      let timeout_job =
        {
          Sweep.benchmark = "flaky";
          strategy = "flaky";
          width = 1;
          run = (fun ~budget:_ ~certify:_ ~telemetry:_ ~fallback:_ -> flow_timeout_run 1);
        }
      in
      let base =
        { no_io with Sweep.jobs = 1; out = Some path; resume = true }
      in
      let first = Sweep.run base [ timeout_job ] in
      Alcotest.(check bool) "plain failure is not quarantined" false
        (List.hd first).Run_record.quarantined;
      (* a retry-enabled resume re-runs it — bigger budgets might answer now *)
      let counter = Atomic.make 0 in
      let healed =
        {
          timeout_job with
          Sweep.run =
            (fun ~budget ~certify ~telemetry ~fallback:_ ->
              Atomic.incr counter;
              (unsat_cell "flaky").Sweep.run ~budget ~certify ~telemetry
                ~fallback:Sweep.Primary);
        }
      in
      let retrying =
        {
          base with
          Sweep.retry =
            {
              Sweep.max_attempts = 2;
              escalation = 2.0;
              fallback_presets = false;
            };
        }
      in
      let second = Sweep.run retrying [ healed ] in
      Alcotest.(check int) "recorded timeout re-ran under retries" 1
        (Atomic.get counter);
      Alcotest.(check bool) "and answered decisively this time" true
        (Run_record.decisive (List.hd second));
      (* a single-attempt resume would have skipped it (historical shape) *)
      let third = Sweep.run base [ crash_job (Atomic.make 0) ] in
      ignore third;
      Alcotest.(check int) "single-attempt resume skips it again" 1
        (Atomic.get counter))

let test_out_lock_excludes_and_reclaims () =
  with_temp_file (fun path ->
      let lock = path ^ ".lock" in
      (* a live holder (this very process) must exclude the sweep *)
      Out_channel.with_open_text lock (fun oc ->
          Out_channel.output_string oc (string_of_int (Unix.getpid ())));
      (match Sweep.run { no_io with Sweep.out = Some path } [ unsat_cell "l" ] with
      | _ -> Alcotest.fail "second writer must be refused"
      | exception Sys_error m ->
          Alcotest.(check bool) "error names the holder" true
            (contains ~needle:"locked" m));
      (* a dead holder is stale: reclaimed silently, sweep proceeds *)
      Out_channel.with_open_text lock (fun oc ->
          Out_channel.output_string oc "999999999");
      let records =
        Sweep.run { no_io with Sweep.out = Some path } [ unsat_cell "l" ]
      in
      Alcotest.(check int) "sweep ran after reclaiming" 1 (List.length records);
      Alcotest.(check bool) "lock released afterwards" false
        (Sys.file_exists lock))

let test_crash_backtrace_captured () =
  let config =
    { no_io with Sweep.jobs = 1; capture_backtrace = true }
  in
  let r = List.hd (Sweep.run config [ crash_job (Atomic.make 0) ]) in
  (match r.Run_record.backtrace with
  | Some bt -> Alcotest.(check bool) "backtrace non-empty" true (String.length bt > 0)
  | None -> Alcotest.fail "capture_backtrace must record the backtrace");
  (* off by default: same crash, no backtrace key *)
  let plain = List.hd (Sweep.run no_io [ crash_job (Atomic.make 0) ]) in
  Alcotest.(check (option string)) "opt-in only" None plain.Run_record.backtrace

(* ---------- chaos: per-fault classification ---------- *)

let run_one_faulted ?(config = { no_io with Sweep.jobs = 1 }) fault =
  let plan = { Chaos.seed = 0; faults = [| Some fault |] } in
  List.hd (Sweep.run config (Chaos.inject plan [ unsat_cell "chaos" ]))

let test_chaos_raise_at_conflict_is_crash () =
  let r = run_one_faulted (Chaos.Raise_at_conflict 1) in
  (match r.Run_record.outcome with
  | Run_record.Crashed m ->
      Alcotest.(check bool) "injected message" true
        (contains ~needle:"chaos" m)
  | o -> Alcotest.fail ("expected Crashed, got " ^ Run_record.outcome_name o));
  match r.Run_record.failure with
  | Some f ->
      Alcotest.(check bool) "classified as injected crash" true
        (contains ~needle:"crash:" f && contains ~needle:"Injected" f)
  | None -> Alcotest.fail "crash must carry a failure classification"

let test_chaos_spurious_interrupt_is_timeout () =
  let r = run_one_faulted Chaos.Spurious_interrupt in
  match r.Run_record.outcome with
  | Run_record.Timeout -> ()
  | o -> Alcotest.fail ("expected Timeout, got " ^ Run_record.outcome_name o)

let test_chaos_hook_raise_is_timeout () =
  (* end-to-end version of the satellite contract: the raising hook reads
     as an interrupt, never as a crash *)
  let r = run_one_faulted Chaos.Hook_raise in
  match r.Run_record.outcome with
  | Run_record.Timeout -> ()
  | o -> Alcotest.fail ("expected Timeout, got " ^ Run_record.outcome_name o)

let test_chaos_alloc_burst_is_memout () =
  let ceiling = heap_mb () + 100 in
  let r =
    run_one_faulted
      ~config:
        {
          no_io with
          Sweep.jobs = 1;
          max_memory_mb = Some ceiling;
          poll_every = 1;
        }
      (Chaos.Alloc_burst 300)
  in
  match r.Run_record.outcome with
  | Run_record.Memout -> ()
  | o -> Alcotest.fail ("expected Memout, got " ^ Run_record.outcome_name o)

let test_chaos_corrupt_drat_rejected () =
  (* certification must catch the torn proof: decisive but certified=false *)
  let r =
    run_one_faulted
      ~config:{ no_io with Sweep.jobs = 1; certify = true }
      Chaos.Corrupt_drat
  in
  (match r.Run_record.outcome with
  | Run_record.Unroutable -> ()
  | o ->
      Alcotest.fail ("expected Unroutable, got " ^ Run_record.outcome_name o));
  Alcotest.(check (option bool)) "torn proof refused" (Some false)
    r.Run_record.certified

let test_chaos_torn_tail_heals_on_resume () =
  with_temp_file (fun path ->
      let config =
        { no_io with Sweep.jobs = 1; out = Some path; resume = true }
      in
      let a = unsat_cell "ta" and b = unsat_cell "tb" in
      ignore (Sweep.run config [ a; b ]);
      (* the faulted third cell truncates the file mid-line before running *)
      let c = unsat_cell "tc" in
      let plan = { Chaos.seed = 0; faults = [| Some Chaos.Torn_tail |] } in
      ignore (Sweep.run config (Chaos.inject ~out:path plan [ c ]));
      let _, bad = Sweep.load path in
      Alcotest.(check int) "exactly one torn line" 1 bad;
      (* the tear ate the previous cell's line, and the faulted cell's own
         record — appended right after the tear, with no newline between —
         glued onto it: both are lost, both (and only both) must re-run *)
      let counter = Atomic.make 0 in
      let counted =
        List.map
          (fun (j : Sweep.job) ->
            {
              j with
              Sweep.run =
                (fun ~budget ~certify ~telemetry ~fallback ->
                  Atomic.incr counter;
                  j.Sweep.run ~budget ~certify ~telemetry ~fallback);
            })
          [ a; b; c ]
      in
      let records = Sweep.run config counted in
      Alcotest.(check int) "exactly the torn and glued cells re-ran" 2
        (Atomic.get counter);
      Alcotest.(check int) "full result set" 3 (List.length records))

(* ---------- chaos: plan structure and sweep invariants ---------- *)

let test_plan_deterministic_and_covering () =
  let p1 = Chaos.make ~seed:42 ~cells:50 in
  let p2 = Chaos.make ~seed:42 ~cells:50 in
  Alcotest.(check bool) "same seed, same plan" true (p1 = p2);
  let p3 = Chaos.make ~seed:43 ~cells:50 in
  Alcotest.(check bool) "different seed, different plan" true
    (p1.Chaos.faults <> p3.Chaos.faults);
  let kinds =
    List.filter_map snd (Chaos.described p1) |> List.sort_uniq compare
  in
  Alcotest.(check int) "all six fault kinds present" 6 (List.length kinds);
  Alcotest.(check (option string)) "out of range is healthy" None
    (Option.map Chaos.fault_name (Chaos.fault p1 50))

let chaos_sweep_invariants ~seed =
  with_temp_file (fun path ->
      let cells = unsat_cells 8 in
      let plan = Chaos.make ~seed ~cells:(List.length cells) in
      let config =
        {
          no_io with
          Sweep.jobs = 1;
          out = Some path;
          resume = true;
          certify = true;
          poll_every = 1;
          max_memory_mb = Some (heap_mb () + 100);
          budget_seconds = Some 5.0;
        }
      in
      let records =
        match Sweep.run config (Chaos.inject ~out:path plan cells) with
        | r -> r
        | exception e ->
            Alcotest.fail
              ("sweep aborted under chaos: " ^ Printexc.to_string e)
      in
      (* one record per cell, in job order *)
      Alcotest.(check int) "one record per cell" (List.length cells)
        (List.length records);
      List.iter2
        (fun (j : Sweep.job) (r : Run_record.t) ->
          Alcotest.(check string) "job order kept" j.Sweep.benchmark
            r.Run_record.benchmark;
          (* every non-decisive ending is classified; decisive ones are not *)
          match r.Run_record.outcome with
          | Run_record.Routable | Run_record.Unroutable ->
              Alcotest.(check (option string)) "decisive: no failure tag" None
                r.Run_record.failure
          | Run_record.Timeout | Run_record.Memout | Run_record.Crashed _ -> (
              match r.Run_record.failure with
              | Some _ -> ()
              | None -> Alcotest.fail "fault left an unclassified record"))
        cells records;
      (* a resume over the same queue is idempotent: the file answers it *)
      let counter = Atomic.make 0 in
      let counted =
        List.map
          (fun (j : Sweep.job) ->
            {
              j with
              Sweep.run =
                (fun ~budget ~certify ~telemetry ~fallback ->
                  Atomic.incr counter;
                  j.Sweep.run ~budget ~certify ~telemetry ~fallback);
            })
          cells
      in
      let again = Sweep.run config counted in
      Alcotest.(check int) "resume answers from the file"
        (List.length records) (List.length again);
      (* every Torn_tail fault can cost up to two records: the line it
         tears plus the faulted cell's own record glued onto the torn line;
         everything still recorded must be skipped *)
      let torn_budget =
        2
        * List.length
            (List.filter
               (fun (_, f) -> f = Some "torn_tail")
               (Chaos.described plan))
      in
      Alcotest.(check bool)
        (Printf.sprintf "at most %d torn cells re-ran (%d did)" torn_budget
           (Atomic.get counter))
        true
        (Atomic.get counter <= torn_budget))

let test_chaos_sweep_invariants () = chaos_sweep_invariants ~seed:7

let chaos_plan_prop =
  QCheck2.Test.make ~count:200 ~name:"chaos plans are deterministic and total"
    QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 0 64))
    (fun (seed, cells) ->
      let p = Chaos.make ~seed ~cells in
      let p' = Chaos.make ~seed ~cells in
      p = p'
      && Array.length p.Chaos.faults = cells
      && List.length (Chaos.described p) = cells
      && Chaos.fault p cells = None
      && Chaos.fault p (-1) = None
      &&
      (* full taxonomy coverage once the plan is big enough *)
      if cells < Array.length Chaos.all_kinds then true
      else
        List.length
          (List.sort_uniq compare (List.filter_map snd (Chaos.described p)))
        = Array.length Chaos.all_kinds)

let chaos_supervisor_prop =
  QCheck2.Test.make ~count:5
    ~name:"supervisor invariants hold under random chaos plans"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      chaos_sweep_invariants ~seed;
      true)

(* ---------- suite ---------- *)

let qtests =
  List.map QCheck_alcotest.to_alcotest [ chaos_plan_prop; chaos_supervisor_prop ]

let () =
  Alcotest.run "chaos"
    [
      ( "solver-memory",
        [
          Alcotest.test_case "memout classified" `Quick test_solver_memout;
          Alcotest.test_case "generous ceiling unchanged" `Quick
            test_solver_memout_unbounded_is_unchanged;
          Alcotest.test_case "hook exception is interrupt" `Quick
            test_hook_exception_is_interrupt;
        ] );
      ( "failure",
        [ Alcotest.test_case "taxonomy" `Quick test_failure_taxonomy ] );
      ( "supervisor",
        [
          Alcotest.test_case "memout recorded" `Quick test_sweep_memout_recorded;
          Alcotest.test_case "fallback ladder" `Quick
            test_retry_walks_fallback_ladder;
          Alcotest.test_case "quarantine skipped on resume" `Quick
            test_quarantine_skipped_on_resume;
          Alcotest.test_case "retrying resume re-runs plain failures" `Quick
            test_retrying_resume_reruns_plain_failures;
          Alcotest.test_case "out lock excludes and reclaims" `Quick
            test_out_lock_excludes_and_reclaims;
          Alcotest.test_case "crash backtrace captured" `Quick
            test_crash_backtrace_captured;
        ] );
      ( "faults",
        [
          Alcotest.test_case "raise_at_conflict crashes" `Quick
            test_chaos_raise_at_conflict_is_crash;
          Alcotest.test_case "spurious_interrupt times out" `Quick
            test_chaos_spurious_interrupt_is_timeout;
          Alcotest.test_case "hook_raise times out" `Quick
            test_chaos_hook_raise_is_timeout;
          Alcotest.test_case "alloc_burst memouts" `Quick
            test_chaos_alloc_burst_is_memout;
          Alcotest.test_case "corrupt_drat rejected" `Quick
            test_chaos_corrupt_drat_rejected;
          Alcotest.test_case "torn_tail heals on resume" `Quick
            test_chaos_torn_tail_heals_on_resume;
        ] );
      ( "plans",
        [
          Alcotest.test_case "deterministic and covering" `Quick
            test_plan_deterministic_and_covering;
          Alcotest.test_case "sweep invariants under seed 7" `Quick
            test_chaos_sweep_invariants;
        ] );
      ("properties", qtests);
    ]

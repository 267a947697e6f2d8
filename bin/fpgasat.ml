(* fpgasat — command-line front end for the SAT-based FPGA detailed router.

   Subcommands mirror the paper's tool flow: generate a benchmark instance,
   export its conflict graph (DIMACS .col), encode a width query to DIMACS
   CNF under any of the 15 encodings, decide routability (with optional DRAT
   proof), search the minimal width, run strategy portfolios, sweep whole
   benchmark × strategy matrices in parallel with streamed JSONL results
   (`sweep`, resumable, optionally certified with --certify; rendered back
   with `report`), check DRAT refutations against DIMACS CNFs (`certify`),
   and solve arbitrary DIMACS CNF / colouring files with the built-in CDCL
   solver. *)

module Sat = Fpgasat_sat
module G = Fpgasat_graph
module E = Fpgasat_encodings
module F = Fpgasat_fpga
module C = Fpgasat_core
module Bdd = Fpgasat_bdd
module Eng = Fpgasat_engine
module Obs = Fpgasat_obs
module Srv = Fpgasat_server
open Cmdliner

(* ---------- converters and shared arguments ---------- *)

let benchmark_conv =
  let parse s =
    match F.Benchmarks.find s with
    | Some spec -> Ok spec
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown benchmark %S (expected one of: %s)" s
               (String.concat ", " F.Benchmarks.names)))
  in
  let print fmt (spec : F.Benchmarks.spec) =
    Format.pp_print_string fmt spec.F.Benchmarks.name
  in
  Arg.conv (parse, print)

let strategy_conv =
  let parse s =
    match C.Strategy.of_name s with Ok s -> Ok s | Error m -> Error (`Msg m)
  in
  let print fmt s = Format.pp_print_string fmt (C.Strategy.name s) in
  Arg.conv (parse, print)

let encoding_conv =
  let parse s =
    match E.Encoding.of_name s with Ok e -> Ok e | Error m -> Error (`Msg m)
  in
  Arg.conv (parse, E.Encoding.pp)

let benchmark_pos =
  Arg.(required & pos 0 (some benchmark_conv) None
       & info [] ~docv:"BENCHMARK" ~doc:"Benchmark name (see $(b,list)).")

let width_arg =
  Arg.(required & opt (some int) None
       & info [ "w"; "width" ] ~docv:"W" ~doc:"Tracks per channel.")

let strategy_arg =
  Arg.(value & opt strategy_conv C.Strategy.best_single
       & info [ "s"; "strategy" ] ~docv:"STRATEGY"
           ~doc:"Strategy: <encoding>[/<b1|s1|none>][@<siege|minisat>].")

let budget_arg =
  Arg.(value & opt (some float) None
       & info [ "budget" ] ~docv:"SEC" ~doc:"Wall-clock budget for the SAT solver, in seconds.")

let budget_of = function
  | None -> Sat.Solver.no_budget
  | Some s -> Sat.Solver.time_budget s

let build_instance spec = F.Benchmarks.build spec

(* ---------- list ---------- *)

let list_cmd =
  let run () =
    print_endline "Benchmarks (synthetic MCNC stand-ins):";
    List.iter
      (fun (spec : F.Benchmarks.spec) ->
        Printf.printf "  %-10s grid=%dx%d nets=%d seed=%d\n" spec.F.Benchmarks.name
          spec.F.Benchmarks.grid spec.F.Benchmarks.grid spec.F.Benchmarks.nets
          spec.F.Benchmarks.seed)
      F.Benchmarks.specs;
    print_endline "\nEncodings (append +defs for definitional emission):";
    List.iter
      (fun e ->
        Printf.printf "  %-30s %s\n" (E.Encoding.name e)
          (E.Encoding.name (E.Encoding.defs e)))
      E.Registry.all;
    print_endline "\nSymmetry-breaking heuristics: b1, s1";
    print_endline "Solver presets: siege, minisat"
  in
  Cmd.v (Cmd.info "list" ~doc:"List benchmarks, encodings and heuristics.")
    Term.(const run $ const ())

(* ---------- info ---------- *)

let info_cmd =
  let run spec =
    let inst = build_instance spec in
    Format.printf "%a@." F.Benchmarks.pp_instance inst;
    let congestion = F.Congestion.of_route inst.F.Benchmarks.route in
    Format.printf "congestion histogram (usage:segments): %a@."
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " ")
         (fun fmt (u, c) -> Format.fprintf fmt "%d:%d" u c))
      (F.Congestion.histogram congestion);
    Printf.printf "clique lower bound: %d\nDSATUR upper bound: %d\n"
      (G.Clique.lower_bound inst.F.Benchmarks.graph)
      (G.Greedy.upper_bound inst.F.Benchmarks.graph);
    Printf.printf "total wirelength: %d\n"
      (F.Global_route.total_wirelength inst.F.Benchmarks.route)
  in
  Cmd.v (Cmd.info "info" ~doc:"Describe a benchmark instance.")
    Term.(const run $ benchmark_pos)

(* ---------- export ---------- *)

let export_cmd =
  let col =
    Arg.(value & opt (some string) None
         & info [ "col" ] ~docv:"FILE" ~doc:"Write the conflict graph as DIMACS .col.")
  in
  let dot =
    Arg.(value & opt (some string) None
         & info [ "dot" ] ~docv:"FILE" ~doc:"Write the conflict graph as Graphviz DOT.")
  in
  let run spec col dot =
    let inst = build_instance spec in
    let graph = inst.F.Benchmarks.graph in
    let comments =
      [
        Printf.sprintf "conflict graph of benchmark %s" spec.F.Benchmarks.name;
        Printf.sprintf "vertices = 2-pin subnets (%d), edges = shared channel segments (%d)"
          (G.Graph.num_vertices graph) (G.Graph.num_edges graph);
      ]
    in
    (match col with
    | Some path ->
        G.Dimacs_col.write_file path ~comments graph;
        Printf.printf "wrote %s\n" path
    | None -> ());
    (match dot with
    | Some path ->
        G.Dot.write_file path ~name:spec.F.Benchmarks.name graph;
        Printf.printf "wrote %s\n" path
    | None -> ());
    if col = None && dot = None then
      print_string (G.Dimacs_col.to_string ~comments graph)
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Export a benchmark's conflict graph (.col to stdout by default).")
    Term.(const run $ benchmark_pos $ col $ dot)

(* ---------- encode ---------- *)

let encode_cmd =
  let enc =
    Arg.(value & opt encoding_conv (List.hd E.Registry.new_encodings)
         & info [ "e"; "encoding" ] ~docv:"ENC" ~doc:"Encoding to use.")
  in
  let sym =
    Arg.(value & opt (some string) None
         & info [ "symmetry" ] ~docv:"H" ~doc:"Symmetry heuristic: b1 or s1.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file (default stdout).")
  in
  let run spec width enc sym out =
    let symmetry =
      Option.map
        (fun s ->
          match E.Symmetry.of_name s with
          | Some h -> h
          | None -> failwith (Printf.sprintf "unknown symmetry heuristic %S" s))
        sym
    in
    let inst = build_instance spec in
    let csp = F.Conflict_graph.csp inst.F.Benchmarks.route ~w:width in
    let encoded = E.Csp_encode.encode ?symmetry enc csp in
    let comments =
      [
        Printf.sprintf "%s at W=%d, encoding %s, symmetry %s"
          spec.F.Benchmarks.name width (E.Encoding.name enc)
          (match symmetry with None -> "-" | Some h -> E.Symmetry.name h);
      ]
    in
    match out with
    | Some path ->
        Sat.Dimacs_cnf.write_file path ~comments encoded.E.Csp_encode.cnf;
        Format.printf "wrote %s (%a)@." path Sat.Cnf.pp_stats encoded.E.Csp_encode.cnf
    | None -> print_string (Sat.Dimacs_cnf.to_string ~comments encoded.E.Csp_encode.cnf)
  in
  Cmd.v
    (Cmd.info "encode" ~doc:"Encode a width query as DIMACS CNF.")
    Term.(const run $ benchmark_pos $ width_arg $ enc $ sym $ out)

(* ---------- route ---------- *)

let route_cmd =
  let proof_arg =
    Arg.(value & opt (some string) None
         & info [ "proof" ] ~docv:"FILE" ~doc:"Write a DRAT refutation on UNSAT.")
  in
  let tracks_arg =
    Arg.(value & flag & info [ "tracks" ] ~doc:"Print the per-subnet track assignment.")
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Print the run as one machine-readable JSON line (the \
                   sweep record schema) instead of the human report.")
  in
  let profile_arg =
    Arg.(value & opt (some string) None
         & info [ "profile" ] ~docv:"FILE"
             ~doc:"Trace the run (solve span + solver events) and write it \
                   as Chrome trace_event JSON, loadable in \
                   chrome://tracing or Perfetto.")
  in
  let inprocess_arg =
    Arg.(value & opt (some (pair ~sep:':' int int)) None
         & info [ "inprocess" ] ~docv:"EVERY:BUDGET"
             ~doc:"Override the solver preset's inprocessing cadence: run a \
                   self-subsumption and vivification pass every EVERY \
                   restarts under a work budget of BUDGET propagations \
                   (EVERY = 0 disables inprocessing). Useful to force \
                   inprocessing on small instances whose runs restart too \
                   few times to reach the default cadence, e.g. when \
                   checking that its DRAT emissions certify.")
  in
  let run spec width strat budget proof_file tracks json profile inprocess =
    let strat =
      match inprocess with
      | None -> strat
      | Some (every, ibudget) ->
          {
            strat with
            C.Strategy.solver =
              {
                strat.C.Strategy.solver with
                Sat.Solver.inprocess_every = every;
                inprocess_budget = ibudget;
              };
          }
    in
    let inst = build_instance spec in
    let trace = Option.map (fun _ -> Obs.Trace.create ()) profile in
    let t0 = Unix.gettimeofday () in
    let request =
      C.Flow.(
        default_request |> with_strategy strat
        |> with_budget (budget_of budget)
        |> with_proof (proof_file <> None)
        |> with_telemetry (profile <> None))
    in
    let request =
      match trace with
      | None -> request
      | Some tr -> C.Flow.with_trace tr request
    in
    let run = C.Flow.submit request inst.F.Benchmarks.route ~width in
    (match (profile, trace) with
    | Some path, Some tr ->
        let oc = open_out path in
        output_string oc (Obs.Json.to_string (Obs.Trace.to_chrome tr));
        output_char oc '\n';
        close_out oc;
        Printf.eprintf "trace written to %s\n" path
    | _ -> ());
    (* independent of output mode: --proof must write the file on UNSAT *)
    let write_proof () =
      match (run.C.Flow.outcome, proof_file, run.C.Flow.proof) with
      | C.Flow.Unroutable, Some path, Some proof ->
          let oc = open_out path in
          Sat.Proof.output oc proof;
          close_out oc;
          Some (path, Sat.Proof.num_steps proof)
      | _ -> None
    in
    if json then begin
      (match write_proof () with
      | Some (path, steps) ->
          Printf.eprintf "DRAT refutation written to %s (%d steps)\n" path steps
      | None -> ());
      print_endline
        (Eng.Run_record.to_line
           (Eng.Run_record.of_run ~benchmark:spec.F.Benchmarks.name
              ~wall_seconds:(Unix.gettimeofday () -. t0)
              run));
      `Ok ()
    end
    else begin
    Printf.printf "benchmark %s, W=%d, strategy %s\n" spec.F.Benchmarks.name width
      (C.Strategy.name strat);
    Printf.printf
      "cnf: %d vars, %d clauses; times: graph %.3fs, cnf %.3fs, solve %.3fs\n"
      run.C.Flow.cnf_vars run.C.Flow.cnf_clauses run.C.Flow.timings.C.Flow.to_graph
      run.C.Flow.timings.C.Flow.to_cnf run.C.Flow.timings.C.Flow.solving;
    Format.printf "solver: %a@." Sat.Stats.pp run.C.Flow.solver_stats;
    match run.C.Flow.outcome with
    | C.Flow.Routable detailed ->
        Printf.printf "ROUTABLE: detailed routing with %d tracks found and verified\n"
          width;
        if tracks then
          Array.iteri
            (fun id t -> Printf.printf "  subnet %d -> track %d\n" id t)
            detailed.F.Detailed_route.tracks;
        `Ok ()
    | C.Flow.Unroutable ->
        Printf.printf "UNROUTABLE: no detailed routing with %d tracks exists\n" width;
        (match write_proof () with
        | Some (path, steps) ->
            Printf.printf "DRAT refutation written to %s (%d steps)\n" path steps
        | None -> ());
        `Ok ()
    | C.Flow.Timeout ->
        Printf.printf "TIMEOUT: budget exhausted without an answer\n";
        `Ok ()
    | C.Flow.Memout ->
        Printf.printf "MEMOUT: memory budget exhausted without an answer\n";
        `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "route" ~doc:"Decide detailed routability at a given width.")
    Term.(ret (const run $ benchmark_pos $ width_arg $ strategy_arg $ budget_arg
               $ proof_arg $ tracks_arg $ json_arg $ profile_arg $ inprocess_arg))

(* ---------- min-width ---------- *)

let min_width_cmd =
  let run spec strat budget =
    let inst = build_instance spec in
    match
      C.Binary_search.minimal_width ~strategy:strat ~budget:(budget_of budget)
        inst.F.Benchmarks.route
    with
    | Error m -> `Error (false, m)
    | Ok r ->
        Printf.printf "minimal channel width of %s: W = %d\n" spec.F.Benchmarks.name
          r.C.Binary_search.w_min;
        (match r.C.Binary_search.unsat_below with
        | Some run ->
            Printf.printf
              "optimality: W = %d proven unroutable by SAT (%.3fs solve)\n"
              (r.C.Binary_search.w_min - 1)
              run.C.Flow.timings.C.Flow.solving
        | None ->
            Printf.printf
              "optimality: W = %d impossible structurally (clique bound)\n"
              (r.C.Binary_search.w_min - 1));
        Printf.printf "SAT queries made: %d\n" (List.length r.C.Binary_search.runs);
        `Ok ()
  in
  Cmd.v
    (Cmd.info "min-width"
       ~doc:"Find the minimal channel width, with an optimality proof.")
    Term.(ret (const run $ benchmark_pos $ strategy_arg $ budget_arg))

(* ---------- portfolio ---------- *)

let jobs_arg =
  Arg.(value & opt (some int) None
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Worker domains (default: the machine's recommended count).")

let portfolio_cmd =
  let members_arg =
    Arg.(value & opt (list strategy_conv) C.Strategy.paper_portfolio_3
         & info [ "members" ] ~docv:"S1,S2,..."
             ~doc:"Portfolio members (default: the paper's 3-strategy portfolio).")
  in
  let run spec width members jobs budget =
    let inst = build_instance spec in
    let result =
      Eng.Portfolio.run ?jobs ~budget:(budget_of budget) members
        inst.F.Benchmarks.route ~width
    in
    List.iter
      (fun (m : Eng.Portfolio.member_result) ->
        Printf.printf "  %-45s %s  cpu %.3fs  wall %.3fs\n"
          (C.Strategy.name m.Eng.Portfolio.strategy)
          (match m.Eng.Portfolio.run.C.Flow.outcome with
          | C.Flow.Routable _ -> "ROUTABLE "
          | C.Flow.Unroutable -> "UNROUTABLE"
          | C.Flow.Timeout -> "cancelled/timeout"
          | C.Flow.Memout -> "memout")
          (C.Flow.total m.Eng.Portfolio.run.C.Flow.timings)
          m.Eng.Portfolio.wall_seconds)
      result.Eng.Portfolio.members;
    match result.Eng.Portfolio.winner with
    | Some w ->
        Printf.printf "winner: %s\n" (C.Strategy.name w.Eng.Portfolio.strategy);
        `Ok ()
    | None -> `Error (false, "no member answered within the budget")
  in
  Cmd.v
    (Cmd.info "portfolio" ~doc:"Run a portfolio of strategies on one width query.")
    Term.(ret (const run $ benchmark_pos $ width_arg $ members_arg $ jobs_arg
               $ budget_arg))

(* ---------- sweep ---------- *)

(* a width specifier: absolute, or relative to the benchmark's minimal width *)
let width_spec_conv =
  let parse s =
    match int_of_string_opt s with
    | Some w -> Ok (`Abs w)
    | None -> (
        match String.lowercase_ascii s with
        | "wmin" -> Ok (`Wmin 0)
        | "wmin-1" -> Ok (`Wmin (-1))
        | "wmin+1" -> Ok (`Wmin 1)
        | _ ->
            Error
              (`Msg
                (Printf.sprintf
                   "bad width %S (expected an integer, wmin, wmin-1 or wmin+1)"
                   s)))
  in
  let print fmt = function
    | `Abs w -> Format.fprintf fmt "%d" w
    | `Wmin 0 -> Format.pp_print_string fmt "wmin"
    | `Wmin d -> Format.fprintf fmt "wmin%+d" d
  in
  Arg.conv (parse, print)

let sweep_cmd =
  let benchmarks_arg =
    Arg.(value & opt (list benchmark_conv) F.Benchmarks.specs
         & info [ "benchmarks" ] ~docv:"B1,B2,..."
             ~doc:"Benchmarks to sweep (default: all eight).")
  in
  let strategies_arg =
    Arg.(value & opt (list strategy_conv) C.Strategy.paper_portfolio_3
         & info [ "strategies" ] ~docv:"S1,S2,..."
             ~doc:"Strategies to sweep (default: the paper's 3-strategy \
                   portfolio members).")
  in
  let widths_arg =
    Arg.(value & opt (list width_spec_conv) [ `Wmin (-1) ]
         & info [ "widths" ] ~docv:"W1,W2,..."
             ~doc:"Widths per benchmark: integers and/or wmin, wmin-1, \
                   wmin+1 (default: wmin-1, the unroutable configurations).")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Stream each completed cell as one JSON line to FILE \
                   (appended; the durable form of the sweep).")
  in
  let resume_arg =
    Arg.(value & flag
         & info [ "resume" ]
             ~doc:"Skip cells already recorded in the $(b,--out) file; a \
                   torn final line from a killed run is ignored and re-run.")
  in
  let certify_arg =
    Arg.(value & flag
         & info [ "certify" ]
             ~doc:"Independently check every decisive cell: verify UNSAT \
                   proofs with the DRAT checker and SAT models against the \
                   CNF and the architecture; records gain a $(b,certified) \
                   field.")
  in
  let max_memory_arg =
    Arg.(value & opt (some int) None
         & info [ "max-memory-mb" ] ~docv:"MB"
             ~doc:"Per-attempt process-heap ceiling; a cell crossing it ends \
                   as $(b,memout) cooperatively instead of taking the sweep \
                   down.")
  in
  let max_attempts_arg =
    Arg.(value & opt int 1
         & info [ "max-attempts" ] ~docv:"N"
             ~doc:"Attempts per cell (default 1). With N > 1, non-decisive \
                   cells are retried with escalated budgets and cells that \
                   fail every attempt are quarantined: recorded, skipped by \
                   future $(b,--resume)s, counted in the summary.")
  in
  let escalation_arg =
    Arg.(value & opt float 2.0
         & info [ "escalation" ] ~docv:"F"
             ~doc:"Budget escalation per retry: attempt n runs with the time \
                   and memory budgets scaled by F^(n-1) (default 2.0).")
  in
  let fallback_arg =
    Arg.(value & flag
         & info [ "fallback" ]
             ~doc:"Walk the solver ladder on retries: attempt 2 and later \
                   swap the preset for minisat, under the escalated budget. \
                   Records keep the cell's own strategy key.")
  in
  let backtrace_arg =
    Arg.(value & flag
         & info [ "backtrace" ]
             ~doc:"Record crash backtraces into the $(b,backtrace) record \
                   field.")
  in
  let telemetry_arg =
    Arg.(value & flag
         & info [ "telemetry" ]
             ~doc:"Derive per-solve telemetry (propagations/s, conflicts/s, \
                   LBD histogram, allocation) on every cell; records gain \
                   the optional $(b,telemetry) key. Summarise with \
                   $(b,report --telemetry).")
  in
  let run benchmarks strategies widths jobs budget out resume certify
      max_memory_mb max_attempts escalation fallback backtrace telemetry =
    if resume && out = None then
      `Error (true, "--resume requires --out FILE")
    else begin
      let needs_wmin = List.exists (function `Wmin _ -> true | _ -> false) widths in
      (* w_min comes from a binary search under 4x the cell budget; one that
         runs out is a refused input naming the benchmark, not a crash *)
      let w_min_of (spec : F.Benchmarks.spec) (inst : F.Benchmarks.instance) =
        if not needs_wmin then Ok None
        else begin
          let search_budget =
            match budget with
            | None -> Sat.Solver.no_budget
            | Some s -> Sat.Solver.time_budget (4. *. s)
          in
          match
            C.Binary_search.minimal_width ~budget:search_budget
              inst.F.Benchmarks.route
          with
          | Ok r ->
              Printf.eprintf "%-10s w_min = %d\n%!" spec.F.Benchmarks.name
                r.C.Binary_search.w_min;
              Ok (Some r.C.Binary_search.w_min)
          | Error m ->
              Error
                (Printf.sprintf "width search failed on %s: %s"
                   spec.F.Benchmarks.name m)
        end
      in
      let rec resolve acc = function
        | [] -> Ok (List.rev acc)
        | spec :: rest -> (
            let inst = build_instance spec in
            match w_min_of spec inst with
            | Ok w_min -> resolve ((inst, w_min) :: acc) rest
            | Error _ as e -> e)
      in
      match resolve [] benchmarks with
      | Error m -> `Error (false, m)
      | Ok instances ->
        let jobs_list =
          List.concat_map
            (fun ((inst : F.Benchmarks.instance), w_min) ->
              let widths =
                List.filter_map
                  (fun spec ->
                    let w =
                      match spec with
                      | `Abs w -> w
                      | `Wmin d -> Option.get w_min + d
                    in
                    if w >= 1 then Some w
                    else begin
                      Printf.eprintf "skipping %s width %d (< 1)\n%!"
                        inst.F.Benchmarks.spec.F.Benchmarks.name w;
                      None
                    end)
                  widths
              in
              List.concat_map
                (fun w ->
                  List.map
                    (fun strategy ->
                      Eng.Sweep.cell
                        ~benchmark:inst.F.Benchmarks.spec.F.Benchmarks.name
                        strategy inst.F.Benchmarks.route ~width:w)
                    strategies)
                (List.sort_uniq compare widths))
            instances
        in
        let t0 = Unix.gettimeofday () in
        let config =
          {
            Eng.Sweep.default_config with
            Eng.Sweep.jobs = Option.value jobs ~default:(Eng.Pool.default_jobs ());
            budget_seconds = budget;
            max_memory_mb;
            out;
            resume;
            certify;
            telemetry;
            retry =
              {
                Eng.Sweep.max_attempts = max 1 max_attempts;
                escalation;
                fallback_presets = fallback;
              };
            capture_backtrace = backtrace;
            on_progress =
              Some
                (fun p ->
                  Printf.eprintf "\r[%d/%d done%s]%!" p.Eng.Sweep.completed
                    p.Eng.Sweep.total
                    (if p.Eng.Sweep.skipped > 0 then
                       Printf.sprintf ", %d resumed" p.Eng.Sweep.skipped
                     else ""));
          }
        in
        let records = Eng.Sweep.run config jobs_list in
        Printf.eprintf "\n%!";
        print_string (Eng.Sweep.render_table records);
        Printf.printf "%s\n" (Eng.Sweep.summary records);
        Printf.printf "sweep wall time: %.2fs (%d worker domains)\n"
          (Unix.gettimeofday () -. t0)
          config.Eng.Sweep.jobs;
        (match out with
        | Some path -> Printf.printf "records: %s\n" path
        | None -> ());
        `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Run a benchmarks × strategies × widths matrix on the domain \
             pool, streaming JSONL results."
       ~man:
         [
           `S Manpage.s_examples;
           `P "fpgasat sweep --benchmarks alu2,too_large --strategies \
               muldirect/s1,ITE-linear/s1 --widths wmin --jobs 2 --budget 5 \
               --out runs.jsonl";
           `P "Interrupted sweeps continue where they left off: re-run the \
               same command with --resume.";
         ])
    Term.(ret (const run $ benchmarks_arg $ strategies_arg $ widths_arg
               $ jobs_arg $ budget_arg $ out_arg $ resume_arg $ certify_arg
               $ max_memory_arg $ max_attempts_arg $ escalation_arg
               $ fallback_arg $ backtrace_arg $ telemetry_arg))

(* ---------- report ---------- *)

let report_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"RUNS.jsonl")
  in
  let strict_arg =
    Arg.(value & flag
         & info [ "strict" ]
             ~doc:"Exit non-zero if any line fails to parse or any cell \
                   crashed (used by CI smoke checks).")
  in
  let require_certified_arg =
    Arg.(value & flag
         & info [ "require-certified" ]
             ~doc:"Exit non-zero unless every decisive (routable or \
                   unroutable) record carries $(b,certified: true) — the CI \
                   gate for sweeps run with $(b,--certify).")
  in
  let telemetry_arg =
    Arg.(value & flag
         & info [ "telemetry" ]
             ~doc:"Also print a per-strategy telemetry summary (median \
                   propagations/s and conflicts/s over the cells that carry \
                   the $(b,telemetry) key — sweeps run with \
                   $(b,--telemetry)).")
  in
  let scaling_arg =
    Arg.(value & flag
         & info [ "scaling" ]
             ~doc:"Also fit per-strategy power-law scaling exponents over \
                   the generated-instance records in the file (benchmarks \
                   named $(b,gen:)...; see $(b,bench --scaling)) and print \
                   the exponent and crossover tables. The fit is a pure \
                   function of the records, so re-running it on the same \
                   file always prints the same exponents.")
  in
  let median xs =
    match List.sort Float.compare xs with
    | [] -> nan
    | sorted ->
        let n = List.length sorted in
        let nth i = List.nth sorted i in
        if n mod 2 = 1 then nth (n / 2)
        else (nth ((n / 2) - 1) +. nth (n / 2)) /. 2.
  in
  let telemetry_summary records =
    let by_strategy = Hashtbl.create 8 in
    let order = ref [] in
    List.iter
      (fun (r : Eng.Run_record.t) ->
        match r.Eng.Run_record.telemetry with
        | None -> ()
        | Some t ->
            let s = r.Eng.Run_record.strategy in
            if not (Hashtbl.mem by_strategy s) then order := s :: !order;
            Hashtbl.replace by_strategy s
              (t :: Option.value (Hashtbl.find_opt by_strategy s) ~default:[]))
      records;
    if !order = [] then
      print_endline
        "telemetry: no records carry it (sweep was run without --telemetry)"
    else begin
      Printf.printf "%-40s %6s %14s %12s\n" "telemetry (median per strategy)"
        "cells" "props/s" "conflicts/s";
      List.iter
        (fun s ->
          let ts = Hashtbl.find by_strategy s in
          Printf.printf "%-40s %6d %14.0f %12.0f\n" s (List.length ts)
            (median
               (List.map (fun t -> t.Obs.Telemetry.propagations_per_sec) ts))
            (median (List.map (fun t -> t.Obs.Telemetry.conflicts_per_sec) ts)))
        (List.rev !order)
    end
  in
  let scaling_summary records =
    let doc = Eng.Dims.analyze records in
    if doc.Obs.Fit.fits = [] then
      print_endline
        "scaling: no fittable generated-instance records (need decisive \
         gen:* cells varying along a dimension)"
    else print_string (Obs.Fit.render doc)
  in
  let run file strict require_certified telemetry scaling =
    let records, bad = Eng.Sweep.load file in
    print_string (Eng.Sweep.render_table records);
    Printf.printf "%s\n" (Eng.Sweep.summary records);
    if telemetry then telemetry_summary records;
    if scaling then scaling_summary records;
    if bad > 0 then Printf.printf "unparsable lines: %d\n" bad;
    let crashed =
      List.exists
        (fun (r : Eng.Run_record.t) ->
          match r.Eng.Run_record.outcome with
          | Eng.Run_record.Crashed _ -> true
          | _ -> false)
        records
    in
    let uncertified =
      List.filter
        (fun (r : Eng.Run_record.t) ->
          Eng.Run_record.decisive r
          && r.Eng.Run_record.certified <> Some true)
        records
    in
    if strict && (bad > 0 || crashed || records = []) then
      `Error (false, "strict check failed: crashed cells or unparsable lines")
    else if require_certified && (records = [] || uncertified <> []) then begin
      List.iter
        (fun (r : Eng.Run_record.t) ->
          Printf.eprintf "not certified: %s\n" (Eng.Run_record.key r))
        uncertified;
      `Error (false, "certification check failed: decisive cells without \
                      certified: true (re-run the sweep with --certify)")
    end
    else `Ok ()
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Render a sweep's JSONL records as the benchmarks × strategies \
             table (a pure view over the file).")
    Term.(ret (const run $ file_arg $ strict_arg $ require_certified_arg
               $ telemetry_arg $ scaling_arg))

(* ---------- trace ---------- *)

let trace_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"RUNS.jsonl")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Write the trace there instead of stdout.")
  in
  (* Sweep records carry durations, not wall-clock instants (cells run
     concurrently on the pool, so their real start times overlap and mean
     little). The trace therefore lays each strategy out on its own thread
     lane and packs its cells end to end — the rendered timeline reads as
     per-strategy cumulative CPU time, which is the quantity the paper
     compares. *)
  let run file out =
    let records, bad = Eng.Sweep.load file in
    if records = [] then
      `Error
        ( false,
          Printf.sprintf "%s: no parsable records (%d bad lines)" file bad )
    else begin
      let tids = Hashtbl.create 8 in
      let cursors = Hashtbl.create 8 in
      let tid_of strategy =
        match Hashtbl.find_opt tids strategy with
        | Some tid -> tid
        | None ->
            let tid = Hashtbl.length tids + 1 in
            Hashtbl.add tids strategy tid;
            tid
      in
      let events = ref [] in
      let span ~name ~tid ~ts_us ~dur_us ~args =
        events :=
          Obs.Json.Obj
            [
              ("name", Obs.Json.String name);
              ("ph", Obs.Json.String "X");
              ("pid", Obs.Json.Int 1);
              ("tid", Obs.Json.Int tid);
              ("ts", Obs.Json.Float ts_us);
              ("dur", Obs.Json.Float dur_us);
              ("args", Obs.Json.Obj args);
            ]
          :: !events
      in
      List.iter
        (fun (r : Eng.Run_record.t) ->
          let tid = tid_of r.Eng.Run_record.strategy in
          let cursor =
            Option.value (Hashtbl.find_opt cursors tid) ~default:0.
          in
          let cell_args =
            [
              ("benchmark", Obs.Json.String r.Eng.Run_record.benchmark);
              ("width", Obs.Json.Int r.Eng.Run_record.width);
              ( "outcome",
                Obs.Json.String
                  (Eng.Run_record.outcome_name r.Eng.Run_record.outcome) );
            ]
          in
          let t = r.Eng.Run_record.timings in
          let phases =
            [
              ("to_graph", t.C.Flow.to_graph);
              ("to_cnf", t.C.Flow.to_cnf);
              ("solving", t.C.Flow.solving);
            ]
          in
          let cell_name =
            Printf.sprintf "%s W=%d" r.Eng.Run_record.benchmark
              r.Eng.Run_record.width
          in
          let total_us =
            1e6 *. List.fold_left (fun a (_, s) -> a +. s) 0. phases
          in
          span ~name:cell_name ~tid ~ts_us:cursor ~dur_us:total_us
            ~args:cell_args;
          let ts = ref cursor in
          List.iter
            (fun (name, seconds) ->
              let dur_us = 1e6 *. seconds in
              span ~name ~tid ~ts_us:!ts ~dur_us ~args:cell_args;
              ts := !ts +. dur_us)
            phases;
          Hashtbl.replace cursors tid (cursor +. total_us))
        records;
      let meta =
        Hashtbl.fold
          (fun strategy tid acc ->
            Obs.Json.Obj
              [
                ("name", Obs.Json.String "thread_name");
                ("ph", Obs.Json.String "M");
                ("pid", Obs.Json.Int 1);
                ("tid", Obs.Json.Int tid);
                ( "args",
                  Obs.Json.Obj [ ("name", Obs.Json.String strategy) ] );
              ]
            :: acc)
          tids []
      in
      let doc =
        Obs.Json.Obj
          [
            ("displayTimeUnit", Obs.Json.String "ms");
            ("traceEvents", Obs.Json.List (meta @ List.rev !events));
          ]
      in
      let text = Obs.Json.to_string doc in
      (match out with
      | None -> print_endline text
      | Some path ->
          let oc = open_out path in
          output_string oc text;
          output_char oc '\n';
          close_out oc;
          Printf.eprintf "trace written to %s\n" path);
      if bad > 0 then Printf.eprintf "unparsable lines skipped: %d\n" bad;
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Convert a sweep's JSONL records into Chrome trace_event JSON \
             (chrome://tracing / Perfetto): one thread lane per strategy, \
             cells packed as cumulative CPU time, phase sub-spans.")
    Term.(ret (const run $ file_arg $ out_arg))

(* ---------- certify ---------- *)

let certify_cmd =
  let cnf_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"CNF" ~doc:"DIMACS CNF file (see $(b,encode)).")
  in
  let proof_pos =
    Arg.(required & pos 1 (some file) None
         & info [] ~docv:"PROOF"
             ~doc:"Textual DRAT proof file (see $(b,route --proof)).")
  in
  let reference_arg =
    Arg.(value & flag
         & info [ "reference" ]
             ~doc:"Use the quadratic list-scanning reference checker instead \
                   of the watched-literal one (differential debugging).")
  in
  let run cnf_file proof_file reference =
    match Sat.Dimacs_cnf.parse_file cnf_file with
    | exception Sat.Dimacs_cnf.Parse_error m ->
        `Error (false, Printf.sprintf "%s: %s" cnf_file m)
    | cnf -> (
        match Sat.Proof.parse_file proof_file with
        | exception Sat.Proof.Parse_error m ->
            `Error (false, Printf.sprintf "%s: %s" proof_file m)
        | proof -> (
            let t0 = Unix.gettimeofday () in
            let outcome =
              if reference then
                Result.map
                  (fun () -> None)
                  (Sat.Drat_check.check_reference cnf proof)
              else Result.map Option.some (Sat.Drat_check.check cnf proof)
            in
            let seconds = Unix.gettimeofday () -. t0 in
            match outcome with
            | Ok stats ->
                Printf.printf
                  "VERIFIED: %s is a DRAT refutation of %s (%d steps, %.3fs)\n"
                  proof_file cnf_file
                  (Sat.Proof.num_steps proof)
                  seconds;
                (match stats with
                | Some s -> Format.printf "checker: %a@." Sat.Drat_check.pp_stats s
                | None -> ());
                `Ok ()
            | Error e ->
                `Error
                  (false, Format.asprintf "proof REJECTED: %a" Sat.Drat_check.pp_error e)))
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:"Check a DRAT refutation against a DIMACS CNF."
       ~man:
         [
           `S Manpage.s_examples;
           `P "fpgasat encode alu2 -w 2 -e muldirect --symmetry s1 -o alu2.cnf";
           `P "fpgasat route alu2 -w 2 -s muldirect/s1 --proof alu2.drat";
           `P "fpgasat certify alu2.cnf alu2.drat";
         ])
    Term.(ret (const run $ cnf_arg $ proof_pos $ reference_arg))

(* ---------- render ---------- *)

let render_cmd =
  let subnet_arg =
    Arg.(value & opt (some int) None
         & info [ "subnet" ] ~docv:"ID" ~doc:"Show this subnet's path instead.")
  in
  let run spec subnet =
    let inst = build_instance spec in
    match subnet with
    | None -> print_string (F.Render.congestion_map inst.F.Benchmarks.route)
    | Some id ->
        if id < 0 || id >= F.Netlist.num_subnets inst.F.Benchmarks.netlist then
          prerr_endline "subnet id out of range"
        else print_string (F.Render.subnet_path inst.F.Benchmarks.route id)
  in
  Cmd.v
    (Cmd.info "render"
       ~doc:"ASCII view of a benchmark's congestion map (or one subnet's path).")
    Term.(const run $ benchmark_pos $ subnet_arg)

(* ---------- route-file: user-provided netlists ---------- *)

let route_file_cmd =
  let nets_arg =
    Arg.(required & opt (some file) None
         & info [ "nets" ] ~docv:"FILE" ~doc:"Netlist file (see Serial format).")
  in
  let routes_arg =
    Arg.(value & opt (some file) None
         & info [ "routes" ] ~docv:"FILE"
             ~doc:"Global routing file; omitted = run the built-in global router.")
  in
  let save_routes_arg =
    Arg.(value & opt (some string) None
         & info [ "save-routes" ] ~docv:"FILE" ~doc:"Write the global routing used.")
  in
  let run nets_file routes_file save_routes width strat budget =
    let read path f =
      match f path with
      | v -> Ok v
      | exception F.Serial.Parse_error m -> Error (Printf.sprintf "%s: %s" path m)
    in
    let route =
      Result.bind (read nets_file F.Serial.read_netlist) (fun (arch, netlist) ->
          match routes_file with
          | Some path -> read path (F.Serial.read_routes ~netlist)
          | None -> Ok (F.Global_router.route arch netlist))
    in
    match route with
    | Error m -> `Error (false, m)
    | Ok route -> (
        (match save_routes with
        | Some path ->
            F.Serial.write_routes path route;
            Printf.printf "wrote %s
" path
        | None -> ());
        let run =
          C.Flow.(
            submit
              (default_request |> with_strategy strat
              |> with_budget (budget_of budget)))
            route ~width
        in
        match run.C.Flow.outcome with
        | C.Flow.Routable d ->
            Printf.printf "ROUTABLE with %d tracks; track assignment:
" width;
            Array.iteri
              (fun id t -> Printf.printf "  subnet %d -> track %d
" id t)
              d.F.Detailed_route.tracks;
            `Ok ()
        | C.Flow.Unroutable ->
            Printf.printf "UNROUTABLE with %d tracks
" width;
            `Ok ()
        | C.Flow.Timeout ->
            Printf.printf "TIMEOUT
";
            `Ok ()
        | C.Flow.Memout ->
            Printf.printf "MEMOUT
";
            `Ok ())
  in
  Cmd.v
    (Cmd.info "route-file"
       ~doc:"Decide routability of a user-provided netlist (and optional routes).")
    Term.(ret (const run $ nets_arg $ routes_arg $ save_routes_arg $ width_arg
               $ strategy_arg $ budget_arg))

(* ---------- solve (standalone DIMACS CNF) ---------- *)

let solve_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.cnf")
  in
  let solver_arg =
    Arg.(value & opt (enum [ ("siege", `Siege_like); ("minisat", `Minisat_like) ])
           `Siege_like
         & info [ "solver" ] ~docv:"NAME" ~doc:"Solver preset: siege or minisat.")
  in
  let run file solver budget =
    match Sat.Dimacs_cnf.parse_file file with
    | exception Sat.Dimacs_cnf.Parse_error m -> `Error (false, m)
    | cnf ->
        let config =
          match solver with
          | `Siege_like -> Sat.Solver.siege_like
          | `Minisat_like -> Sat.Solver.minisat_like
        in
        let t0 = Sys.time () in
        let result, stats = Sat.Solver.solve ~config ~budget:(budget_of budget) cnf in
        Format.printf "c %a@.c %.3fs CPU@." Sat.Stats.pp stats (Sys.time () -. t0);
        (match result with
        | Sat.Solver.Sat model ->
            print_endline "s SATISFIABLE";
            print_string "v ";
            Array.iteri
              (fun v b -> Printf.printf "%d " (if b then v + 1 else -(v + 1)))
              model;
            print_endline "0"
        | Sat.Solver.Unsat -> print_endline "s UNSATISFIABLE"
        | Sat.Solver.Unknown -> print_endline "s UNKNOWN"
        | Sat.Solver.Memout -> print_endline "s UNKNOWN (memout)");
        `Ok ()
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Solve a DIMACS CNF file with the built-in CDCL solver.")
    Term.(ret (const run $ file_arg $ solver_arg $ budget_arg))

(* ---------- color (standalone .col colouring) ---------- *)

let color_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.col")
  in
  let k_arg =
    Arg.(required & opt (some int) None
         & info [ "k" ] ~docv:"K" ~doc:"Number of colours.")
  in
  let enc =
    Arg.(value & opt encoding_conv (List.hd E.Registry.new_encodings)
         & info [ "e"; "encoding" ] ~docv:"ENC" ~doc:"Encoding to use.")
  in
  let sym =
    Arg.(value & opt (some string) None
         & info [ "symmetry" ] ~docv:"H" ~doc:"Symmetry heuristic: b1 or s1.")
  in
  let method_arg =
    Arg.(value
         & opt (enum [ ("sat", `Sat); ("exact", `Exact); ("bdd", `Bdd);
                       ("walksat", `Walksat) ]) `Sat
         & info [ "method" ] ~docv:"M"
             ~doc:"sat (encode + CDCL), exact (branch and bound), bdd, or walksat.")
  in
  let run file k enc sym budget method_ =
    match G.Dimacs_col.parse_file file with
    | exception G.Dimacs_col.Parse_error m -> `Error (false, m)
    | graph ->
        let print_coloring coloring =
          assert (G.Coloring.is_proper graph ~k coloring);
          Printf.printf "COLORABLE with %d colours\n" k;
          Array.iteri (fun v c -> Printf.printf "  %d -> %d\n" v c) coloring
        in
        let sat_based use_walksat =
          let symmetry =
            Option.map
              (fun s ->
                match E.Symmetry.of_name s with
                | Some h -> h
                | None -> failwith (Printf.sprintf "unknown heuristic %S" s))
              sym
          in
          let csp = E.Csp.make graph ~k in
          let encoded = E.Csp_encode.encode ?symmetry enc csp in
          if use_walksat then
            match Sat.Walksat.solve encoded.E.Csp_encode.cnf with
            | Sat.Walksat.Sat model, flips ->
                print_coloring (E.Csp_encode.decode encoded model);
                Printf.printf "(%d flips)\n" flips
            | Sat.Walksat.Unknown, _ ->
                print_endline "UNKNOWN (local search found no model)"
          else
            let result, _ =
              Sat.Solver.solve ~budget:(budget_of budget) encoded.E.Csp_encode.cnf
            in
            match result with
            | Sat.Solver.Sat model -> print_coloring (E.Csp_encode.decode encoded model)
            | Sat.Solver.Unsat -> Printf.printf "NOT %d-colourable\n" k
            | Sat.Solver.Unknown -> print_endline "UNKNOWN (budget exhausted)"
            | Sat.Solver.Memout -> print_endline "UNKNOWN (memory budget exhausted)"
        in
        (match method_ with
        | `Exact -> (
            match G.Exact_coloring.k_colorable graph ~k with
            | G.Exact_coloring.Colorable c -> print_coloring c
            | G.Exact_coloring.Uncolorable -> Printf.printf "NOT %d-colourable\n" k
            | G.Exact_coloring.Exhausted -> print_endline "UNKNOWN (node budget)")
        | `Bdd -> (
            match Bdd.Coloring_bdd.k_colorable graph ~k with
            | Bdd.Coloring_bdd.Colorable c ->
                print_coloring c;
                (match Bdd.Coloring_bdd.count_colorings graph ~k with
                | Some count -> Printf.printf "proper colourings: %.0f\n" count
                | None -> ())
            | Bdd.Coloring_bdd.Uncolorable -> Printf.printf "NOT %d-colourable\n" k
            | Bdd.Coloring_bdd.Node_limit -> print_endline "UNKNOWN (BDD node limit)")
        | `Sat -> sat_based false
        | `Walksat -> sat_based true);
        `Ok ()
  in
  Cmd.v
    (Cmd.info "color" ~doc:"K-colour a DIMACS .col graph via a SAT encoding.")
    Term.(ret (const run $ file_arg $ k_arg $ enc $ sym $ budget_arg $ method_arg))

(* ---------- serve / client ---------- *)

let socket_arg =
  Arg.(value & opt string "/tmp/fpgasat.sock"
       & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let serve_cmd =
  let workers_arg =
    Arg.(value & opt int 2
         & info [ "workers" ] ~docv:"N" ~doc:"Solver worker domains.")
  in
  let queue_arg =
    Arg.(value & opt int 16
         & info [ "queue" ] ~docv:"N"
             ~doc:"Max queued requests before answering $(i,overloaded).")
  in
  let cache_arg =
    Arg.(value & opt int 256
         & info [ "cache" ] ~docv:"N" ~doc:"Answer-cache capacity (entries).")
  in
  let sessions_arg =
    Arg.(value & opt int 16
         & info [ "sessions" ] ~docv:"N"
             ~doc:"Warm sessions kept (LRU beyond this).")
  in
  let max_seconds_arg =
    Arg.(value & opt (some float) None
         & info [ "max-seconds" ] ~docv:"SEC"
             ~doc:"Server-side ceiling on any request's time budget.")
  in
  let max_memory_arg =
    Arg.(value & opt (some int) None
         & info [ "max-memory-mb" ] ~docv:"MB"
             ~doc:"Server-side ceiling on any request's memory budget.")
  in
  let cache_file_arg =
    Arg.(value & opt (some string) None
         & info [ "cache-file" ] ~docv:"PATH"
             ~doc:"Journal the answer cache to this JSONL file: replayed \
                   on startup (surviving a $(i,kill -9)), appended while \
                   serving, guarded by a pid lock.")
  in
  let test_ops_arg =
    Arg.(value & flag
         & info [ "test-ops" ]
             ~doc:"Enable the $(i,sleep) op and the request $(i,fault) \
                   field (deterministic load and chaos injection for \
                   tests).")
  in
  let run socket workers queue cache sessions max_seconds max_memory_mb
      cache_file test_ops =
    let config =
      {
        (Srv.Server.default_config ~socket_path:socket) with
        Srv.Server.workers;
        queue_capacity = queue;
        cache_capacity = cache;
        max_sessions = sessions;
        max_seconds;
        max_memory_mb;
        cache_file;
        test_ops;
      }
    in
    match
      Printf.eprintf "fpgasat: serving on %s (%d workers, queue %d)\n%!"
        socket workers queue;
      Srv.Server.run config
    with
    | () ->
        Printf.eprintf "fpgasat: drained cleanly\n%!";
        `Ok ()
    | exception Failure m -> `Error (false, m)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the solve server: warm per-strategy solver sessions, an \
          answer cache (optionally journaled to disk), admission control, \
          worker respawn, graceful drain on SIGTERM or the $(i,shutdown) \
          op.")
    Term.(
      ret
        (const run $ socket_arg $ workers_arg $ queue_arg $ cache_arg
       $ sessions_arg $ max_seconds_arg $ max_memory_arg $ cache_file_arg
       $ test_ops_arg))

let client_cmd =
  let op_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"OP"
             ~doc:"One of: route, min_width, ping, stats, shutdown.")
  in
  let bench_arg =
    Arg.(value & pos 1 (some benchmark_conv) None
         & info [] ~docv:"BENCHMARK" ~doc:"Benchmark (route, min_width).")
  in
  let width_opt_arg =
    Arg.(value & opt (some int) None
         & info [ "w"; "width" ] ~docv:"W" ~doc:"Tracks per channel (route).")
  in
  let strategy_opt_arg =
    Arg.(value & opt (some string) None
         & info [ "s"; "strategy" ] ~docv:"STRATEGY"
             ~doc:"Strategy name; server default when absent.")
  in
  let certify_arg =
    Arg.(value & flag
         & info [ "certify" ]
             ~doc:"Ask for an independently checked answer: a checked \
                   model or routing, a checked clique, or a DRAT-checked \
                   refutation.")
  in
  let telemetry_arg =
    Arg.(value & flag
         & info [ "telemetry" ] ~doc:"Include telemetry in the run record.")
  in
  let id_arg =
    Arg.(value & opt (some string) None
         & info [ "id" ] ~docv:"ID" ~doc:"Request id echoed in the response.")
  in
  let deadline_arg =
    Arg.(value & opt (some int) None
         & info [ "deadline-ms" ] ~docv:"MS"
             ~doc:"Total time you are willing to wait; the server shrinks \
                   the solve budget by queue wait and sheds with \
                   $(i,deadline_exceeded) when it has already passed.")
  in
  let timeout_arg =
    Arg.(value & opt (some float) None
         & info [ "timeout" ] ~docv:"SEC"
             ~doc:"Socket receive/send timeout: a hung server becomes a \
                   bounded error instead of a blocked client.")
  in
  let retries_arg =
    Arg.(value & opt int 0
         & info [ "retries" ] ~docv:"N"
             ~doc:"Retry idempotent requests up to N times on transport \
                   errors or $(i,overloaded), with jittered exponential \
                   backoff.")
  in
  let fault_arg =
    Arg.(value & opt (some string) None
         & info [ "fault" ] ~docv:"KIND"
             ~doc:"Chaos injection (server must run with --test-ops): \
                   worker_kill, torn_journal, kill_server.")
  in
  let run socket op bench width strategy budget certify telemetry id
      deadline_ms timeout retries fault =
    let ( let* ) r f =
      match r with Error m -> `Error (false, m) | Ok v -> f v
    in
    let* op =
      match op with
      | "route" -> Ok Srv.Protocol.Route
      | "min_width" | "min-width" -> Ok Srv.Protocol.Min_width
      | "ping" -> Ok Srv.Protocol.Ping
      | "stats" -> Ok Srv.Protocol.Stats
      | "shutdown" -> Ok Srv.Protocol.Shutdown
      | other -> Error (Printf.sprintf "unknown op %S" other)
    in
    let benchmark =
      match bench with
      | Some (spec : F.Benchmarks.spec) -> spec.F.Benchmarks.name
      | None -> ""
    in
    let* () =
      match (op, benchmark, width) with
      | Srv.Protocol.Route, "", _ -> Error "route needs a BENCHMARK"
      | Srv.Protocol.Route, _, None -> Error "route needs --width"
      | Srv.Protocol.Min_width, "", _ -> Error "min_width needs a BENCHMARK"
      | _ -> Ok ()
    in
    let request =
      Srv.Protocol.request ?id ?strategy ?max_seconds:budget ?deadline_ms
        ?fault ~certify ~telemetry ~benchmark
        ~width:(Option.value width ~default:0)
        op
    in
    let* response =
      Srv.Client.call_with_retry ~retries ?timeout ~socket request
    in
    print_endline
      (Obs.Json.to_string (Srv.Protocol.response_to_json response));
    if response.Srv.Protocol.status = Srv.Protocol.Done then `Ok ()
    else `Error (false, "request did not complete")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send one request to a running solve server and print the JSON \
          response line.")
    Term.(
      ret
        (const run $ socket_arg $ op_arg $ bench_arg $ width_opt_arg
       $ strategy_opt_arg $ budget_arg $ certify_arg $ telemetry_arg $ id_arg
       $ deadline_arg $ timeout_arg $ retries_arg $ fault_arg))

(* ---------- main ---------- *)

let () =
  let doc = "SAT-based FPGA detailed routing (reproduction of Velev & Gao, DATE 2008)" in
  let info = Cmd.info "fpgasat" ~version:"1.0.0" ~doc in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            list_cmd; info_cmd; export_cmd; encode_cmd; route_cmd; min_width_cmd;
            portfolio_cmd; sweep_cmd; report_cmd; trace_cmd; certify_cmd;
            solve_cmd; color_cmd; render_cmd; route_file_cmd; serve_cmd;
            client_cmd;
          ]))

(* Benchmark harness: regenerates every table and figure of the paper.

   Sections (all run by default; select with --sections):
     table1     clause sets of the log / direct / muldirect encodings on the
                paper's 2-vertex, 3-colour worked example (Table 1)
     figure1    the four ITE trees for a 13-value domain (Fig. 1a-d)
     table2     total CPU time on the unroutable configurations of the eight
                benchmarks, across the seven Table 2 encodings and the
                symmetry-breaking variants, plus the speedup row (Table 2)
     routable   the satisfiable configurations (Sect. 6: "most encodings had
                comparable and very efficient performance")
     solvers    siege-like vs minisat-like presets on UNSAT instances
                (Sect. 6: "siege_v4 was faster by at least a factor of 2")
     portfolio  the 2- and 3-strategy parallel portfolios (Sect. 6)
     ablations  at-most-one (direct vs muldirect) and shared-vs-private
                bottom variables (DESIGN.md decisions 1-2)
     certify    watched-literal DRAT checker vs the quadratic reference
                checker on a bench-sized proof, plus a differential fuzz
                sweep (CDCL vs DPLL vs exact colouring, certified) across
                every registry encoding

   Timed cells are bounded by --budget seconds (default 30): a cell that
   exceeds it is reported as "T/O" and enters the totals at the budget
   value, making total speedups lower bounds, as in common practice.

   The matrix sections (table2, routable, solvers) submit their cells to
   the Fpgasat_engine.Sweep domain pool: --jobs N runs N cells at a time
   (default 1, the faithful sequential accounting — parallel cells contend
   for memory bandwidth and their CPU times grow), --out streams every
   completed cell as one JSON line, and --resume skips cells already in
   the --out file, making the expensive tables restartable. The budget is
   enforced as a wall-clock deadline through the solver's cooperative
   interrupt hook. Tables are rendered from the collected records.

   --scaling replaces the paper sections with a dimensional sweep over
   generated instances (Fpgasat_engine.Dims): the grid's cells run through
   the same Sweep pool (--jobs, --out, --resume, --budget and --certify
   all apply), per-strategy power-law exponents are fitted from the
   records (Fpgasat_obs.Fit), --scaling-out writes them as
   fpgasat.scaling/1 JSON, and --baseline gates on the fitted exponents —
   catching regressions in the growth rate, where the fixed-cell perf gate
   catches them in the constants. Both gates are one Fpgasat_obs.Gate
   check: each section declares the kind it is judged by where it is
   measured. *)

module Sat = Fpgasat_sat
module G = Fpgasat_graph
module E = Fpgasat_encodings
module F = Fpgasat_fpga
module C = Fpgasat_core
module Eng = Fpgasat_engine
module Obs = Fpgasat_obs
module Flow = C.Flow
module Strategy = C.Strategy
module Report = C.Report
module Sweep = Eng.Sweep
module Run_record = Eng.Run_record

let budget_seconds = ref 30.
let sections = ref
    "table1,figure1,table2,routable,solvers,portfolio,ablations,baselines,extensions,incremental,channel,certify"
let encode_bench_only = ref false
let jobs = ref 1
let out_file = ref ""
let resume = ref false
let certify = ref false
let chaos = ref false
let chaos_seed = ref 2008
let bench_out = ref ""
let baseline_file = ref ""
let perf_handicap = ref 0
let scaling = ref false
let scaling_grid = ref "smoke"
let scaling_out = ref ""
let scaling_handicap = ref 0
let scaling_repeats = ref 2
let scaling_strategies = ref "ITE-linear-2+muldirect/s1,muldirect/s1"

let usage =
  "main.exe [--budget SEC] [--sections a,b,c] [--jobs N] [--out FILE.jsonl] \
   [--resume] [--certify] [--chaos] [--chaos-seed N] [--encode-bench] \
   [--bench-out FILE.json] [--baseline FILE.json] \
   [--perf-handicap N] [--scaling] [--scaling-grid smoke|full] \
   [--scaling-out FILE.json] [--scaling-handicap N] [--scaling-strategies LIST]"

let arg_spec =
  [
    ("--budget", Arg.Set_float budget_seconds, "SEC per-cell time budget (default 30)");
    ( "--sections",
      Arg.Set_string sections,
      "LIST comma-separated sections (default: all paper sections)" );
    ("--jobs", Arg.Set_int jobs, "N worker domains for the matrix sections (default 1)");
    ( "--out",
      Arg.Set_string out_file,
      "FILE stream completed cells of the matrix sections as JSON lines" );
    ("--resume", Arg.Set resume, " skip cells already recorded in the --out file");
    ( "--certify",
      Arg.Set certify,
      " independently certify every decisive cell of the matrix sections \
       (DRAT check on UNSAT, model + architecture check on SAT)" );
    ( "--chaos",
      Arg.Set chaos,
      " run the chaos-harness robustness section: inject every fault kind \
       into a seeded sweep and check the supervisor's invariants" );
    ( "--chaos-seed",
      Arg.Set_int chaos_seed,
      "N seed of the deterministic chaos plan (default 2008)" );
    ( "--encode-bench",
      Arg.Set encode_bench_only,
      " print encode+load throughput JSON for the largest configuration and exit" );
    ( "--bench-out",
      Arg.Set_string bench_out,
      "FILE run the perf-gate matrix (encode throughput, instance \
       generation and fixed solver cells) and write it as \
       fpgasat.bench/1 JSON" );
    ( "--baseline",
      Arg.Set_string baseline_file,
      "FILE gate against this baseline and exit 1 on regression: the \
       perf-gate matrix against a fpgasat.bench/1 file, or under --scaling \
       the fitted exponents against a fpgasat.scaling/1 file" );
    ( "--perf-handicap",
      Arg.Set_int perf_handicap,
      "N deliberately slow every solve by N spin iterations per conflict \
       (poll_every 1) — for verifying that the perf gate actually fails" );
    ( "--scaling",
      Arg.Set scaling,
      " run the dimensional scaling section (generated instance grid, \
       fitted per-strategy power-law exponents) and exit" );
    ( "--scaling-grid",
      Arg.Set_string scaling_grid,
      "NAME smoke (2x2x2, CI-sized) or full (the nightly grid; default \
       smoke)" );
    ( "--scaling-out",
      Arg.Set_string scaling_out,
      "FILE write the fitted exponents as fpgasat.scaling/1 JSON" );
    ( "--scaling-handicap",
      Arg.Set_int scaling_handicap,
      "N deliberately slow every scaling solve by a spin per conflict that \
       grows as the fourth power of the cell's net count — a size-dependent \
       slowdown that inflates the fitted nets exponent, for verifying that \
       the exponent gate actually fails" );
    ( "--scaling-repeats",
      Arg.Set_int scaling_repeats,
      "N best-of-N timing for sub-second scaling cells (default 2) — the \
       tiny cells anchor the low end of every curve, so shaving their \
       timer noise stabilises the fitted exponents" );
    ( "--scaling-strategies",
      Arg.Set_string scaling_strategies,
      "LIST comma-separated strategies for the scaling section (default \
       ITE-linear-2+muldirect/s1,muldirect/s1)" );
  ]

let sweep_config () =
  {
    Sweep.default_config with
    Sweep.jobs = !jobs;
    budget_seconds = Some !budget_seconds;
    out = (if !out_file = "" then None else Some !out_file);
    resume = !resume;
    certify = !certify;
    on_progress =
      Some
        (fun p ->
          Printf.eprintf "\r[%d/%d cells]%!" p.Sweep.completed p.Sweep.total;
          if p.Sweep.completed = p.Sweep.total then Printf.eprintf "\n%!");
  }

let run_sweep cells = Sweep.run (sweep_config ()) cells

(* record lookup for table rendering *)
let record_index records =
  let tbl = Hashtbl.create (List.length records) in
  List.iter (fun r -> Hashtbl.replace tbl (Run_record.key r) r) records;
  fun ~benchmark ~strategy ~width ->
    match
      Hashtbl.find_opt tbl
        (Run_record.make_key ~benchmark ~strategy:(Strategy.name strategy) ~width)
    with
    | Some r -> r
    | None ->
        failwith
          (Printf.sprintf "missing sweep record for %s"
             (Run_record.make_key ~benchmark ~strategy:(Strategy.name strategy)
                ~width))

(* a timed record cell: total CPU time, or the budget on T/O *)
let record_seconds (r : Run_record.t) =
  match r.Run_record.outcome with
  | Run_record.Timeout | Run_record.Memout -> !budget_seconds
  | Run_record.Routable | Run_record.Unroutable | Run_record.Crashed _ ->
      Run_record.total_seconds r

let record_timed_out (r : Run_record.t) =
  r.Run_record.outcome = Run_record.Timeout

let record_text (r : Run_record.t) =
  match r.Run_record.outcome with
  | Run_record.Timeout -> "T/O"
  | Run_record.Memout -> "M/O"
  | Run_record.Crashed _ -> "crash"
  | Run_record.Routable | Run_record.Unroutable ->
      Report.format_seconds (record_seconds r)

let section_enabled name = List.mem name (String.split_on_char ',' !sections)

let strategy name =
  match Strategy.of_name name with Ok s -> s | Error m -> failwith m

let encoding name =
  match E.Encoding.of_name name with Ok e -> e | Error m -> failwith m

(* ------------------------------------------------------------------ *)
(* benchmark instances and their minimal widths, computed once         *)

(* w_min per benchmark, memoised: the paper sections, the certify section
   and both perf-gate sections key their widths off it. *)
let w_min_cache : (string, int) Hashtbl.t = Hashtbl.create 8

let w_min_of bench route =
  match Hashtbl.find_opt w_min_cache bench with
  | Some w -> w
  | None ->
      let w =
        match
          C.Binary_search.minimal_width ~strategy:Strategy.best_single
            ~budget:(Sat.Solver.time_budget (4. *. !budget_seconds))
            route
        with
        | Ok r -> r.C.Binary_search.w_min
        | Error m ->
            failwith (Printf.sprintf "width search failed on %s: %s" bench m)
      in
      Hashtbl.add w_min_cache bench w;
      w

type prepared = { inst : F.Benchmarks.instance; w_min : int }

let prepare_all () =
  List.map
    (fun spec ->
      let inst = F.Benchmarks.build spec in
      { inst; w_min = w_min_of spec.F.Benchmarks.name inst.F.Benchmarks.route })
    F.Benchmarks.specs

let prepared = lazy (prepare_all ())
let bench_name pb = pb.inst.F.Benchmarks.spec.F.Benchmarks.name

(* a timed cell: total CPU time of graph+cnf+solve, or the budget on T/O *)
type cell = { seconds : float; timed_out : bool; outcome : Flow.outcome }

let run_cell ?(width_delta = -1) pb strat =
  let width = pb.w_min + width_delta in
  let run =
    Flow.(
      submit
        (default_request |> with_strategy strat
        |> with_budget (Sat.Solver.time_budget !budget_seconds)))
      pb.inst.F.Benchmarks.route ~width
  in
  match run.Flow.outcome with
  | Flow.Timeout | Flow.Memout ->
      { seconds = !budget_seconds; timed_out = true; outcome = run.Flow.outcome }
  | Flow.Routable _ | Flow.Unroutable ->
      {
        seconds = Flow.total run.Flow.timings;
        timed_out = false;
        outcome = run.Flow.outcome;
      }

let cell_text c =
  if c.timed_out then "T/O" else Report.format_seconds c.seconds

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)

let clause_strings cnf =
  List.rev
    (Sat.Cnf.fold_clauses cnf ~init:[] ~f:(fun acc arena off len ->
         let lits =
           List.init len (fun k -> string_of_int (Sat.Lit.to_dimacs arena.(off + k)))
         in
         ("(" ^ String.concat " | " lits ^ ")") :: acc))

let section_table1 () =
  print_string
    (Report.section "Table 1: previously used encodings on the worked example");
  print_endline
    "Two adjacent CSP variables v (Boolean vars 1..) and w, domain {0,1,2}\n\
     (two electrically distinct 2-pin nets through one 3-track connection\n\
     block). Clauses as emitted by this implementation:\n";
  List.iter
    (fun name ->
      let g = G.Graph.of_edges 2 [ (0, 1) ] in
      let csp = E.Csp.make g ~k:3 in
      let encoded = E.Csp_encode.encode (encoding name) csp in
      Printf.printf "%-10s  vars/CSP-var=%d  clauses: %s\n" name
        encoded.E.Csp_encode.layout.E.Layout.num_slots
        (String.concat " " (clause_strings encoded.E.Csp_encode.cnf)))
    [ "log"; "direct"; "muldirect" ];
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Figure 1                                                            *)

let print_patterns layout =
  List.iteri
    (fun v pattern ->
      Printf.printf "    v%-2d <- %s\n" v
        (Format.asprintf "%a" E.Layout.pp_pattern pattern))
    (Array.to_list layout.E.Layout.patterns)

let section_figure1 () =
  print_string
    (Report.section "Figure 1: ITE trees for a CSP variable with 13 domain values");
  print_endline "(a) ITE-linear:";
  print_string (E.Ite_tree.render (E.Ite_tree.linear 13));
  print_endline "\n(b) ITE-log:";
  print_string (E.Ite_tree.render (E.Ite_tree.balanced 13));
  List.iter
    (fun (tag, name) ->
      Printf.printf "\n(%s) %s — indexing Boolean patterns:\n" tag name;
      print_patterns (E.Encoding.layout (encoding name) 13))
    [ ("c", "ITE-log-1+ITE-linear"); ("d", "ITE-log-2+ITE-linear") ];
  print_endline
    "\nPaper check (Fig. 1d / Sect. 4): v4 <- i0 & -i1 & i2,\n\
     v5 <- i0 & -i1 & -i2 & i3, v6 <- i0 & -i1 & -i2 & -i3.";
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Table 2                                                             *)

let table2_columns =
  let muldirect_cols =
    [
      ("muldirect", None);
      ("muldirect", Some E.Symmetry.B1);
      ("muldirect", Some E.Symmetry.S1);
    ]
  in
  let both e = [ (e, Some E.Symmetry.B1); (e, Some E.Symmetry.S1) ] in
  List.map (fun (e, s) -> (encoding e, s)) muldirect_cols
  @ List.concat_map
      (fun e -> both (encoding e))
      [
        "ITE-linear"; "ITE-log"; "ITE-linear-2+direct"; "ITE-linear-2+muldirect";
        "muldirect-3+muldirect"; "direct-3+muldirect";
      ]

let column_header (enc, sym) =
  Printf.sprintf "%s/%s" (E.Encoding.name enc)
    (Format.asprintf "%a" E.Symmetry.pp_option sym)

let strategy_of_column (enc, sym) =
  Strategy.make ?symmetry:sym ~solver:`Siege_like enc

let section_table2 () =
  print_string
    (Report.section
       "Table 2: total CPU time [sec] on the challenging UNROUTABLE \
        configurations");
  Printf.printf
    "Width = w_min - 1 per benchmark; per-cell budget %.0fs (T/O enters the\n\
     totals at the budget, so speedups under T/O are lower bounds).\n\n"
    !budget_seconds;
  let benches = Lazy.force prepared in
  let cols = List.map strategy_of_column table2_columns in
  let records =
    run_sweep
      (List.concat_map
         (fun pb ->
           List.map
             (fun strat ->
               Sweep.cell ~benchmark:(bench_name pb) strat
                 pb.inst.F.Benchmarks.route ~width:(pb.w_min - 1))
             cols)
         benches)
  in
  let find = record_index records in
  let ncols = List.length cols in
  let totals = Array.make ncols 0. in
  let any_timeout = Array.make ncols false in
  let rows =
    List.map
      (fun pb ->
        let cells =
          List.map
            (fun strat ->
              find ~benchmark:(bench_name pb) ~strategy:strat
                ~width:(pb.w_min - 1))
            cols
        in
        List.iteri
          (fun i r ->
            totals.(i) <- totals.(i) +. record_seconds r;
            if record_timed_out r then any_timeout.(i) <- true;
            match r.Run_record.outcome with
            | Run_record.Routable ->
                Printf.eprintf "WARNING: %s at w_min-1 came out routable!\n"
                  (bench_name pb)
            | Run_record.Crashed m ->
                Printf.eprintf "WARNING: %s cell crashed: %s\n" (bench_name pb) m
            | Run_record.Unroutable | Run_record.Timeout | Run_record.Memout ->
                ())
          cells;
        Printf.sprintf "%s (W=%d)" (bench_name pb) (pb.w_min - 1)
        :: List.map record_text cells)
      benches
  in
  let total_row =
    "Total"
    :: List.mapi
         (fun i _ ->
           (if any_timeout.(i) then ">=" else "") ^ Report.format_seconds totals.(i))
         table2_columns
  in
  let base = totals.(0) in
  let speedup_row =
    "Speedup wrt muldirect/-"
    :: List.mapi
         (fun i _ ->
           let s = base /. totals.(i) in
           (if any_timeout.(0) && not any_timeout.(i) then ">=" else "")
           ^ Report.format_speedup s)
         table2_columns
  in
  print_string
    (Report.render_table
       ~header:("Benchmark" :: List.map column_header table2_columns)
       (rows @ [ total_row; speedup_row ]));
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Routable configurations                                             *)

let section_routable () =
  print_string
    (Report.section "Routable configurations (width = w_min): satisfiable formulas");
  print_endline
    "Sect. 6: most encodings are comparable and very efficient when a\n\
     detailed routing exists. Times below use s1 and the minisat preset.\n";
  let benches = Lazy.force prepared in
  let cols =
    List.map
      (fun e -> Strategy.make ~symmetry:E.Symmetry.S1 ~solver:`Minisat_like e)
      E.Registry.table2
  in
  let records =
    run_sweep
      (List.concat_map
         (fun pb ->
           List.map
             (fun strat ->
               Sweep.cell ~benchmark:(bench_name pb) strat
                 pb.inst.F.Benchmarks.route ~width:pb.w_min)
             cols)
         benches)
  in
  let find = record_index records in
  let rows =
    List.map
      (fun pb ->
        let cells =
          List.map
            (fun strat ->
              let r =
                find ~benchmark:(bench_name pb) ~strategy:strat ~width:pb.w_min
              in
              (match r.Run_record.outcome with
              | Run_record.Unroutable ->
                  Printf.eprintf "WARNING: %s at w_min unroutable!\n" (bench_name pb)
              | Run_record.Routable | Run_record.Timeout | Run_record.Memout
              | Run_record.Crashed _ ->
                  ());
              record_text r)
            cols
        in
        Printf.sprintf "%s (W=%d)" (bench_name pb) pb.w_min :: cells)
      benches
  in
  print_string
    (Report.render_table
       ~header:("Benchmark" :: List.map E.Encoding.name E.Registry.table2)
       rows);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Solver comparison                                                   *)

let section_solvers () =
  print_string (Report.section "Solver presets on UNSAT instances (Sect. 6)");
  print_endline "Encoding ITE-linear-2+muldirect with s1; UNSAT at w_min - 1.\n";
  let benches = Lazy.force prepared in
  let strat solver =
    Strategy.make ~symmetry:E.Symmetry.S1 ~solver (encoding "ITE-linear-2+muldirect")
  in
  let records =
    run_sweep
      (List.concat_map
         (fun pb ->
           List.map
             (fun solver ->
               Sweep.cell ~benchmark:(bench_name pb) (strat solver)
                 pb.inst.F.Benchmarks.route ~width:(pb.w_min - 1))
             [ `Siege_like; `Minisat_like ])
         benches)
  in
  let find = record_index records in
  let total_siege = ref 0. and total_minisat = ref 0. in
  let rows =
    List.map
      (fun pb ->
        let cell solver =
          find ~benchmark:(bench_name pb) ~strategy:(strat solver)
            ~width:(pb.w_min - 1)
        in
        let siege = cell `Siege_like and minisat = cell `Minisat_like in
        total_siege := !total_siege +. record_seconds siege;
        total_minisat := !total_minisat +. record_seconds minisat;
        [ bench_name pb; record_text siege; record_text minisat ])
      benches
  in
  let totals =
    [ "Total"; Report.format_seconds !total_siege; Report.format_seconds !total_minisat ]
  in
  print_string
    (Report.render_table ~header:[ "Benchmark"; "siege-like"; "minisat-like" ]
       (rows @ [ totals ]));
  Printf.printf "minisat-like / siege-like total ratio: %s\n\n"
    (Report.format_speedup (!total_minisat /. !total_siege))

(* ------------------------------------------------------------------ *)
(* Portfolios                                                          *)

let section_portfolio () =
  print_string (Report.section "Parallel strategy portfolios (Sect. 6)");
  print_endline
    "Per-benchmark portfolio time = min over member times (first answer\n\
     wins, losers cancelled). Members:\n\
     \  P2 = {ITE-linear-2+muldirect/s1, muldirect-3+muldirect/s1}\n\
     \  P3 = P2 + {ITE-linear-2+direct/s1}\n";
  let benches = Lazy.force prepared in
  let best = ref 0. and p2 = ref 0. and p3 = ref 0. in
  let rows =
    List.map
      (fun pb ->
        let times =
          List.map (fun strat -> (run_cell pb strat).seconds) Strategy.paper_portfolio_3
        in
        match times with
        | [ t_best; t_m3m; t_i2d ] ->
            let t2 = min t_best t_m3m in
            let t3 = min t2 t_i2d in
            best := !best +. t_best;
            p2 := !p2 +. t2;
            p3 := !p3 +. t3;
            [
              bench_name pb;
              Report.format_seconds t_best;
              Report.format_seconds t2;
              Report.format_seconds t3;
            ]
        | _ -> assert false)
      benches
  in
  let totals =
    [
      "Total";
      Report.format_seconds !best;
      Report.format_seconds !p2;
      Report.format_seconds !p3;
    ]
  in
  print_string
    (Report.render_table
       ~header:[ "Benchmark"; "best single"; "portfolio-2"; "portfolio-3" ]
       (rows @ [ totals ]));
  Printf.printf "portfolio-2 speedup vs best single: %s (paper: 1.84x)\n"
    (Report.format_speedup (!best /. !p2));
  Printf.printf "portfolio-3 speedup vs best single: %s (paper: 2.30x)\n\n"
    (Report.format_speedup (!best /. !p3))

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)

let section_ablations () =
  print_string
    (Report.section "Ablation 1: at-most-one clauses (direct vs muldirect)");
  print_endline "UNSAT at w_min - 1, no symmetry breaking, middle benchmarks.\n";
  let benches =
    Lazy.force prepared
    |> List.filter (fun pb ->
           List.mem (bench_name pb)
             [ "alu2"; "too_large"; "alu4"; "C880"; "apex7"; "C1355" ])
  in
  let rows =
    List.map
      (fun pb ->
        let t e = cell_text (run_cell pb (strategy e)) in
        [ bench_name pb; t "direct"; t "muldirect" ])
      benches
  in
  print_string
    (Report.render_table ~header:[ "Benchmark"; "direct"; "muldirect" ] rows);
  print_string (Report.section "Ablation 2: shared vs private bottom-level variables");
  print_endline
    "direct-3+muldirect with s1: the paper shares one bottom variable set\n\
     across subdomains; '!unshared' gives every subdomain its own block.\n";
  let rows =
    List.map
      (fun pb ->
        let t e = cell_text (run_cell pb (strategy e)) in
        [
          bench_name pb;
          t "direct-3+muldirect/s1";
          t "direct-3+muldirect!unshared/s1";
        ])
      benches
  in
  print_string (Report.render_table ~header:[ "Benchmark"; "shared"; "unshared" ] rows);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Baselines: SAT vs exact CSP search vs DSATUR                        *)

let section_baselines () =
  print_string
    (Report.section
       "Baselines: SAT flow vs exact CSP search vs greedy (Sect. 1 context)");
  print_endline
    "UNSAT columns (width = w_min - 1): the SAT flow vs DSATUR-ordered\n\
     branch-and-bound (node budget 100k). SAT column =\n\
     ITE-linear-2+muldirect/s1. DSATUR appears in the routable columns\n\
     (width = w_min); it cannot prove unroutability — the contrast the\n\
     paper draws.\n";
  let benches = Lazy.force prepared in
  let rows =
    List.map
      (fun pb ->
        let graph = pb.inst.F.Benchmarks.graph in
        let w = pb.w_min in
        (* UNSAT side *)
        let sat_cell = cell_text (run_cell pb Strategy.best_single) in
        let time f =
          let t0 = Sys.time () in
          let tag = f () in
          (tag, Sys.time () -. t0)
        in
        let bnb_tag, bnb_t =
          time (fun () ->
              match G.Exact_coloring.k_colorable ~max_nodes:100_000 graph ~k:(w - 1) with
              | G.Exact_coloring.Uncolorable -> ""
              | G.Exact_coloring.Colorable _ -> "?!"
              | G.Exact_coloring.Exhausted -> "give-up ")
        in
        (* routable side *)
        let sat_routable = cell_text (run_cell ~width_delta:0 pb Strategy.best_single) in
        let dsatur_tag, dsatur_t =
          time (fun () ->
              let c = G.Greedy.dsatur graph in
              if G.Coloring.num_colors c <= w then "" else Printf.sprintf "W=%d " (G.Coloring.num_colors c))
        in
        [
          bench_name pb;
          sat_cell;
          bnb_tag ^ Report.format_seconds bnb_t;
          sat_routable;
          dsatur_tag ^ Report.format_seconds dsatur_t;
        ])
      benches
  in
  print_string
    (Report.render_table
       ~header:
         [ "Benchmark"; "SAT unsat"; "B&B unsat"; "SAT route"; "DSATUR route" ]
       rows);
  print_endline
    "('give-up' = budget exhausted without an answer; DSATUR cells marked\n\
     W=x needed more than w_min tracks)\n"

(* ------------------------------------------------------------------ *)
(* Extensions: multi-level hierarchies                                 *)

let section_extensions () =
  print_string
    (Report.section "Extension: three-level hierarchical encodings (Sect. 4)");
  print_endline
    "The composition framework is fully general; these three-level\n\
     encodings go beyond the paper's evaluated set (cf. Kwon & Klieber).\n\
     UNSAT at w_min - 1 with s1.\n";
  let benches =
    Lazy.force prepared
    |> List.filter (fun pb ->
           List.mem (bench_name pb) [ "alu4"; "C880"; "apex7"; "C1355" ])
  in
  let encodings =
    encoding "ITE-linear-2+muldirect" :: E.Registry.multi_level_extensions
  in
  let rows =
    List.map
      (fun pb ->
        bench_name pb
        :: List.map
             (fun e ->
               cell_text (run_cell pb (Strategy.make ~symmetry:E.Symmetry.S1 e)))
             encodings)
      benches
  in
  print_string
    (Report.render_table
       ~header:("Benchmark" :: List.map E.Encoding.name encodings)
       rows);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Incremental width search vs per-width re-translation                *)

let section_incremental () =
  print_string
    (Report.section
       "Extension: incremental width search (one solver, colour selectors)");
  print_endline
    "Minimal-width search: re-translate per width (the paper's flow) vs a\n\
     single incremental solver with colour-off selector assumptions.\n";
  let budget = Sat.Solver.time_budget !budget_seconds in
  let rows =
    List.map
      (fun pb ->
        let route = pb.inst.F.Benchmarks.route in
        let graph = pb.inst.F.Benchmarks.graph in
        let t0 = Sys.time () in
        let bs = C.Binary_search.minimal_width ~budget route in
        let t_bs = Sys.time () -. t0 in
        let t0 = Sys.time () in
        let inc = C.Incremental_width.minimal_colors ~budget graph in
        let t_inc = Sys.time () -. t0 in
        match (bs, inc) with
        | Ok bs, Ok inc ->
            if bs.C.Binary_search.w_min <> inc.C.Incremental_width.w_min then
              Printf.eprintf "WARNING: width search mismatch on %s!\n"
                (bench_name pb);
            [
              bench_name pb;
              string_of_int bs.C.Binary_search.w_min;
              Printf.sprintf "%s (%d queries)" (Report.format_seconds t_bs)
                (List.length bs.C.Binary_search.runs);
              Printf.sprintf "%s (%d queries)" (Report.format_seconds t_inc)
                inc.C.Incremental_width.queries;
            ]
        | Error m, _ | _, Error m -> [ bench_name pb; "?"; m; "" ])
      (Lazy.force prepared)
  in
  print_string
    (Report.render_table
       ~header:[ "Benchmark"; "w_min"; "re-translate"; "incremental" ]
       rows);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Segmented channels (ref. [17] domain)                               *)

let section_channel () =
  print_string
    (Report.section "Second domain: segmented channel routing (ref. [17])");
  print_endline
    "Random Actel-style segmented channels; the same encodings route them\n\
     even though conflicts are value-dependent (not graph colouring).\n";
  let module Ch = Fpgasat_channel.Segmented_channel in
  let module Cs = Fpgasat_channel.Channel_sat in
  let rng = F.Rng.create 2008 in
  let make_instance ~length ~tracks ~conns =
    let ch = Ch.random ~rng ~length ~tracks ~max_cuts:(length / 6) in
    let connections =
      List.init conns (fun i ->
          let a = F.Rng.int rng (length - 1) in
          let span = 1 + F.Rng.int rng (max 1 (length / 4)) in
          Ch.connection i a (min (length - 1) (a + span)))
    in
    (ch, connections)
  in
  let encodings = [ "muldirect"; "ITE-linear"; "ITE-linear-2+muldirect" ] in
  let rows =
    List.map
      (fun (length, tracks, conns) ->
        let ch, connections = make_instance ~length ~tracks ~conns in
        let cells =
          List.map
            (fun ename ->
              let t0 = Sys.time () in
              let tag =
                match
                  Cs.route ~encoding:(encoding ename)
                    ~budget:(Sat.Solver.time_budget !budget_seconds) ch connections
                with
                | Cs.Routed _ -> ""
                | Cs.Unroutable -> "unsat "
                | Cs.Timeout -> "T/O "
              in
              tag ^ Report.format_seconds (Sys.time () -. t0))
            encodings
        in
        Printf.sprintf "len=%d tracks=%d conns=%d" length tracks conns :: cells)
      [
        (12, 4, 5); (16, 6, 8); (24, 8, 14); (32, 10, 22); (32, 8, 60);
      ]
  in
  print_string (Report.render_table ~header:("Channel" :: encodings) rows);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Certification                                                        *)

(* Two parts. (a) Checker speedup: solve the unroutable alu2 configuration
   once with proof recording, then time the watched-literal checker against
   the quadratic reference checker on the same trace — the before/after
   number quoted in EXPERIMENTS.md. (b) Differential fuzz: on random small
   routes, every registry encoding must agree with plain DPLL on the CNF
   and with exact branch-and-bound colouring on the conflict graph, and
   every decisive answer must certify. *)
let section_certify () =
  print_string (Report.section "Certification: watched-literal DRAT checker");
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  (* (a) speedup on a bench-sized proof *)
  let spec = Option.get (F.Benchmarks.find "alu2") in
  let inst = F.Benchmarks.build spec in
  let width = max 1 (w_min_of "alu2" inst.F.Benchmarks.route - 1) in
  let strat = Strategy.best_single in
  let csp =
    E.Csp.make (F.Conflict_graph.build inst.F.Benchmarks.route) ~k:width
  in
  let encoded =
    E.Csp_encode.encode ?symmetry:strat.Strategy.symmetry
      strat.Strategy.encoding csp
  in
  let cnf = encoded.E.Csp_encode.cnf in
  let proof = Sat.Proof.create () in
  (match Sat.Solver.solve ~config:strat.Strategy.solver ~proof cnf with
  | Sat.Solver.Unsat, _ -> ()
  | _ -> failwith "expected alu2 below w_min to be UNSAT");
  let checked, fast_s = time (fun () -> Sat.Drat_check.check cnf proof) in
  let stats =
    match checked with
    | Ok s -> s
    | Error e ->
        failwith (Format.asprintf "checker rejected: %a" Sat.Drat_check.pp_error e)
  in
  let ref_result, ref_s =
    time (fun () -> Sat.Drat_check.check_reference cnf proof)
  in
  (match ref_result with
  | Ok () -> ()
  | Error e ->
      failwith
        (Format.asprintf "reference checker rejected: %a" Sat.Drat_check.pp_error
           e));
  Printf.printf
    "alu2 W=%d (%d vars, %d clauses, %d proof steps):\n\
    \  watched-literal checker: %.3fs\n\
    \  reference checker:       %.3fs  (%.1fx speedup)\n"
    width (Sat.Cnf.num_vars cnf) (Sat.Cnf.num_clauses cnf)
    (Sat.Proof.num_steps proof) fast_s ref_s (ref_s /. fast_s);
  Format.printf "  %a@." Sat.Drat_check.pp_stats stats;
  (* (b) differential fuzz across the registry *)
  let cells = ref 0 and certified = ref 0 and mismatches = ref 0 in
  for seed = 1 to 5 do
    let arch = F.Arch.create 4 in
    let rng = F.Rng.create (100 + seed) in
    let nl =
      F.Netlist.random ~rng ~arch ~num_nets:(6 + (seed mod 5)) ~max_fanout:2
        ~locality:2
    in
    let route = F.Global_router.route arch nl in
    let graph = F.Conflict_graph.build route in
    let ub = G.Greedy.upper_bound graph in
    let widths = List.sort_uniq compare [ max 1 (ub - 1); ub ] in
    List.iter
      (fun enc ->
        let strat = Strategy.make enc in
        List.iter
          (fun width ->
            incr cells;
            let run =
              Flow.(
                submit
                  (default_request |> with_strategy strat |> with_certify true))
                route ~width
            in
            if run.Flow.certified = Some true then incr certified;
            let csp = E.Csp.make graph ~k:width in
            let encoded =
              E.Csp_encode.encode ?symmetry:strat.Strategy.symmetry
                strat.Strategy.encoding csp
            in
            let dpll =
              Sat.Dpll.solve ~max_decisions:2_000_000 encoded.E.Csp_encode.cnf
            in
            let exact = G.Exact_coloring.k_colorable graph ~k:width in
            let sat_answer =
              match run.Flow.outcome with
              | Flow.Routable _ -> Some true
              | Flow.Unroutable -> Some false
              | Flow.Timeout | Flow.Memout -> None
            in
            let dpll_answer =
              match dpll with
              | Sat.Dpll.Sat _ -> Some true
              | Sat.Dpll.Unsat -> Some false
              | Sat.Dpll.Unknown -> None
            in
            let exact_answer =
              match exact with
              | G.Exact_coloring.Colorable _ -> Some true
              | G.Exact_coloring.Uncolorable -> Some false
              | G.Exact_coloring.Exhausted -> None
            in
            let agree a b =
              match (a, b) with Some x, Some y -> x = y | _ -> true
            in
            if
              not
                (agree sat_answer dpll_answer
                && agree sat_answer exact_answer
                && agree dpll_answer exact_answer)
            then begin
              incr mismatches;
              Printf.printf
                "MISMATCH seed=%d %s W=%d: cdcl=%s dpll=%s exact=%s\n" seed
                (Strategy.name strat) width
                (Flow.outcome_name run.Flow.outcome)
                (match dpll_answer with
                | Some true -> "sat"
                | Some false -> "unsat"
                | None -> "unknown")
                (match exact_answer with
                | Some true -> "colorable"
                | Some false -> "uncolorable"
                | None -> "exhausted")
            end)
          widths)
      E.Registry.all
  done;
  Printf.printf
    "differential fuzz: %d cells across %d encodings, %d certified, %d \
     mismatches\n"
    !cells
    (List.length E.Registry.all)
    !certified !mismatches;
  if !mismatches > 0 then failwith "solver/DPLL/exact-colouring disagreement"

(* ------------------------------------------------------------------ *)
(* Chaos harness (robustness check, not a paper section)                *)

(* Injects every fault kind into a table2-style queue through a seeded
   deterministic plan (Fpgasat_engine.Chaos) and checks the supervisor's
   promises: the sweep never aborts, every cell yields exactly one
   classified record, memory-faulted cells end cooperatively as M/O while
   the process survives, and a resume over the same queue re-runs at most
   the records the torn-tail faults destroyed. Any violation raises, so CI
   can run this section as a smoke test. *)
let section_chaos () =
  print_string
    (Report.section "Chaos harness: sweep supervisor under injected faults");
  let benches = Lazy.force prepared in
  let cols =
    List.filteri (fun i _ -> i < 7) (List.map strategy_of_column table2_columns)
  in
  let cells =
    List.concat_map
      (fun pb ->
        List.map
          (fun strat ->
            Sweep.cell ~benchmark:(bench_name pb) strat
              pb.inst.F.Benchmarks.route ~width:(pb.w_min - 1))
          cols)
      benches
  in
  let heap_mb =
    (Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8) / (1024 * 1024)
  in
  let ceiling = heap_mb + 256 in
  let plan = Eng.Chaos.make ~seed:!chaos_seed ~cells:(List.length cells) in
  let described = Eng.Chaos.described plan in
  let faulted = List.length (List.filter (fun (_, f) -> f <> None) described) in
  let torn =
    List.length (List.filter (fun (_, f) -> f = Some "torn_tail") described)
  in
  Printf.printf
    "seed %d: %d cells (%d benchmarks x %d strategies at w_min-1), %d \
     faulted;\nheap %d MB, memory ceiling %d MB, retry x2 with fallback \
     presets.\n\n"
    !chaos_seed (List.length cells) (List.length benches) (List.length cols)
    faulted heap_mb ceiling;
  let out = Filename.temp_file "fpgasat_chaos" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ out; out ^ ".lock" ])
    (fun () ->
      let config =
        {
          (sweep_config ()) with
          Sweep.jobs = 1;
          poll_every = 1;
          out = Some out;
          resume = true;
          certify = true;
          capture_backtrace = true;
          max_memory_mb = Some ceiling;
          retry =
            {
              Sweep.max_attempts = 2;
              escalation = 2.0;
              fallback_presets = true;
            };
        }
      in
      let records =
        match Sweep.run config (Eng.Chaos.inject ~out plan cells) with
        | r -> r
        | exception e ->
            failwith
              ("CHAOS VIOLATION: sweep aborted: " ^ Printexc.to_string e)
      in
      if List.length records <> List.length cells then
        failwith "CHAOS VIOLATION: record count differs from cell count";
      let unclassified =
        List.filter
          (fun (r : Run_record.t) ->
            (not (Run_record.decisive r)) && r.Run_record.failure = None)
          records
      in
      if unclassified <> [] then
        failwith
          (Printf.sprintf
             "CHAOS VIOLATION: %d non-decisive records carry no failure \
              classification"
             (List.length unclassified));
      (* fault kind x outcome matrix *)
      let kinds =
        "healthy"
        :: Array.to_list (Array.map Eng.Chaos.fault_name Eng.Chaos.all_kinds)
      in
      let outcomes = [ "routable"; "unroutable"; "timeout"; "memout"; "crashed" ] in
      let count = Hashtbl.create 32 in
      List.iteri
        (fun i (r : Run_record.t) ->
          let kind =
            match Eng.Chaos.fault plan i with
            | None -> "healthy"
            | Some f -> Eng.Chaos.fault_name f
          in
          let o =
            match r.Run_record.outcome with
            | Run_record.Crashed _ -> "crashed"
            | o -> Run_record.outcome_name o
          in
          let key = (kind, o) in
          Hashtbl.replace count key
            (1 + Option.value ~default:0 (Hashtbl.find_opt count key)))
        records;
      print_string
        (Report.matrix ~corner:"fault \\ outcome" ~rows:kinds ~cols:outcomes
           ~cell:(fun ~row ~col ->
             match Hashtbl.find_opt count (row, col) with
             | Some n -> string_of_int n
             | None -> ".")
           ());
      let on_disk, bad = Sweep.load out in
      Printf.printf
        "\n%s\nresults file: %d records parsed, %d torn lines (%d torn-tail \
         faults injected)\n"
        (Sweep.summary records) (List.length on_disk) bad torn;
      if bad > torn then
        failwith "CHAOS VIOLATION: more torn lines than torn-tail faults";
      (* resume over the same queue with the faults removed: every surviving
         record must be trusted, so at most the records destroyed by torn
         tails (the torn line plus the record glued onto it) may re-run *)
      let reran = Hashtbl.create 16 in
      let counted =
        List.map
          (fun (j : Sweep.job) ->
            {
              j with
              Sweep.run =
                (fun ~budget ~certify ~telemetry ~fallback ->
                  (* one mark per cell, not per attempt *)
                  Hashtbl.replace reran
                    (j.Sweep.benchmark, j.Sweep.strategy, j.Sweep.width) ();
                  j.Sweep.run ~budget ~certify ~telemetry ~fallback);
            })
          cells
      in
      let again = Sweep.run config counted in
      let reran = Hashtbl.length reran in
      Printf.printf "resume: %d/%d cells re-ran (torn budget %d)\n" reran
        (List.length again) (2 * torn);
      if reran > 2 * torn then
        failwith "CHAOS VIOLATION: resume re-ran cells whose records survived";
      print_endline "chaos harness: all supervisor invariants held\n")

(* ------------------------------------------------------------------ *)
(* Encode+load throughput on the largest bundled configuration          *)

(* Single-line JSON for BENCH_encode.json trajectory tracking: wall time to
   emit the CNF into the arena, wall time to load it into the CDCL solver,
   and words allocated across one encode+load pass. *)
type encode_measurements = {
  em_vars : int;
  em_clauses : int;
  em_lits : int;
  em_encode_s : float;
  em_load_s : float;
  em_words_alloc : int;
}

let measure_encode () =
  let spec = Option.get (F.Benchmarks.find "vda") in
  let inst = F.Benchmarks.build spec in
  let graph = inst.F.Benchmarks.graph in
  let k = inst.F.Benchmarks.max_congestion in
  let enc = encoding "direct" in
  let csp = E.Csp.make graph ~k in
  let encode_once () = E.Csp_encode.encode enc csp in
  let time_best f =
    let best = ref infinity and out = ref None in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      let r = f () in
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt;
      out := Some r
    done;
    (Option.get !out, !best)
  in
  let encoded, encode_s = time_best encode_once in
  let cnf = encoded.E.Csp_encode.cnf in
  let _, load_s = time_best (fun () -> Sat.Solver.create cnf) in
  let bytes0 = Gc.allocated_bytes () in
  let encoded' = encode_once () in
  let solver = Sat.Solver.create encoded'.E.Csp_encode.cnf in
  let bytes1 = Gc.allocated_bytes () in
  ignore (Sat.Solver.solver_stats solver);
  {
    em_vars = Sat.Cnf.num_vars cnf;
    em_clauses = Sat.Cnf.num_clauses cnf;
    em_lits = Sat.Cnf.num_lits cnf;
    em_encode_s = encode_s;
    em_load_s = load_s;
    em_words_alloc = int_of_float ((bytes1 -. bytes0) /. 8.);
  }

let section_encode_bench () =
  let m = measure_encode () in
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("vars", Obs.Json.Int m.em_vars);
            ("clauses", Obs.Json.Int m.em_clauses);
            ("lits", Obs.Json.Int m.em_lits);
            ("encode_s", Obs.Json.Float m.em_encode_s);
            ("load_s", Obs.Json.Float m.em_load_s);
            ("words_alloc", Obs.Json.Int m.em_words_alloc);
          ]))

(* ------------------------------------------------------------------ *)
(* Perf gate: a small fixed matrix against a committed baseline         *)

(* The handicaps exist to prove the gates have teeth: [spin_budget n]
   makes every conflict pay n spin iterations through an interrupt hook
   polled at every conflict, a deliberate slowdown a healthy run never
   shows. *)
let spin_budget n budget =
  let hook () =
    let acc = ref 0 in
    for i = 1 to n do
      acc := !acc + i
    done;
    ignore (Sys.opaque_identity !acc);
    false
  in
  Sat.Solver.with_poll_interval 1 (Sat.Solver.interruptible hook budget)

(* [--perf-handicap N]: a uniform N per conflict, which the Ratio sections
   must catch. *)
let handicap_budget budget =
  if !perf_handicap <= 0 then budget else spin_budget !perf_handicap budget

(* The one verdict both gate modes end in: the report, then exit 1 on
   regression. An unreadable baseline exits 2, like a usage error. *)
let read_baseline of_file =
  match of_file !baseline_file with
  | Ok baseline -> baseline
  | Error m ->
      prerr_endline (Printf.sprintf "--baseline %s: %s" !baseline_file m);
      exit 2

let gate ~baseline current =
  let report = Obs.Gate.check ~baseline ~current in
  print_endline (Obs.Gate.render report);
  if not report.Obs.Gate.ok then exit 1

(* The solve half of the matrix: two benchmarks small enough to finish in
   seconds yet conflict-heavy enough to exercise the search, each at
   w_min-1 (UNSAT) and w_min+1 (easy SAT). Keys are relative to w_min, so
   the baseline stays valid even if a solver change moves w_min itself.
   Best of two runs, to shave scheduler noise. *)
let perf_solve_cells () =
  List.concat_map
    (fun bench ->
      let spec = Option.get (F.Benchmarks.find bench) in
      let inst = F.Benchmarks.build spec in
      let route = inst.F.Benchmarks.route in
      let w_min = w_min_of bench route in
      List.map
        (fun (tag, delta) ->
          let width = max 1 (w_min + delta) in
          let once () =
            let budget =
              handicap_budget (Sat.Solver.time_budget !budget_seconds)
            in
            let run =
              Flow.(
                submit
                  (default_request
                  |> with_strategy Strategy.best_single
                  |> with_budget budget))
                route ~width
            in
            match run.Flow.outcome with
            | Flow.Timeout | Flow.Memout -> !budget_seconds
            | Flow.Routable _ | Flow.Unroutable -> Flow.total run.Flow.timings
          in
          let seconds = Float.min (once ()) (once ()) in
          (Printf.sprintf "%s|%s" bench tag, seconds))
        [ ("wmin-1", -1); ("wmin+1", 1) ])
    [ "alu2"; "too_large" ]

(* BCP throughput cells: the watcher/arena hot path, as microseconds per
   propagation so lower-is-better Gate ratios gate it directly. The
   rate comes from the same Telemetry records that sweep --telemetry
   reports. Each cell is an unroutable Table-2-style configuration under
   the log encoding, capped by a conflict budget so repeated runs of the
   deterministic solver perform identical work; the median over the
   repeats shaves scheduler noise. That same work — decisions,
   propagations and conflicts — is returned as the cells of the exact
   [work] section, once every repeat has been checked to agree on it. *)
let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let props_cells () =
  let log_strategy = Strategy.make ~solver:`Siege_like (encoding "log") in
  let cells =
    List.map
      (fun (bench, repeats, conflicts) ->
        let spec = Option.get (F.Benchmarks.find bench) in
        let inst = F.Benchmarks.build spec in
        let route = inst.F.Benchmarks.route in
        let width = max 1 (w_min_of bench route - 1) in
        let once () =
          let budget = handicap_budget (Sat.Solver.conflict_budget conflicts) in
          let run =
            Flow.(
              submit
                (default_request
                |> with_strategy log_strategy
                |> with_budget budget |> with_telemetry true))
              route ~width
          in
          let s = run.Flow.solver_stats in
          match run.Flow.telemetry with
          | Some t ->
              ( t.Obs.Telemetry.propagations_per_sec,
                Sat.Stats.(s.decisions, s.propagations, s.conflicts) )
          | None -> failwith "perf-gate: telemetry record missing"
        in
        let runs = List.init repeats (fun _ -> once ()) in
        let cell = Printf.sprintf "%s|wmin-1|log" bench in
        let work = snd (List.hd runs) in
        if List.exists (fun (_, w) -> w <> work) runs then
          failwith ("perf-gate: repeats of " ^ cell ^ " did different work");
        let decisions, propagations, conflicts = work in
        let per_sec = median (List.map fst runs) in
        Printf.eprintf "perf-gate: %s W=%d log: %.0f propagations/s\n%!" bench
          width per_sec;
        ( (cell, 1e6 /. per_sec),
          [
            (cell ^ "/decisions", float_of_int decisions);
            (cell ^ "/propagations", float_of_int propagations);
            (cell ^ "/conflicts", float_of_int conflicts);
          ] ))
      [ ("alu2", 5, 100_000); ("vda", 3, 6_000) ]
  in
  (List.map fst cells, List.concat_map snd cells)

(* Instance generation, the set-up every experiment, CLI call and server
   session pays before it encodes anything: the eight bundled benchmarks
   built (netlist, global route, conflict graph) and bracketed
   (Width_bounds: maximum clique and DSATUR), and the largest generated
   instance the end-to-end benchmark routes. Best of five, in seconds. *)
let instance_cells () =
  let best_of_five f =
    let best = ref infinity in
    for _ = 1 to 5 do
      let t0 = Unix.gettimeofday () in
      ignore (Sys.opaque_identity (f ()));
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  let build () = List.map F.Benchmarks.build F.Benchmarks.specs in
  let graphs = List.map (fun i -> i.F.Benchmarks.graph) (build ()) in
  let large = { F.Generator.default_params with grid = 24; nets = 900 } in
  [
    ("suite/build_s", best_of_five build);
    ("suite/bounds_s", best_of_five (fun () -> List.map C.Width_bounds.of_graph graphs));
    ( F.Generator.name large F.Generator.Routable ^ "/build_s",
      best_of_five (fun () -> F.Generator.build large F.Generator.Routable) );
  ]

let section_perf_gate () =
  let m = measure_encode () in
  let encode_cells =
    [
      ("vda/encode_s", m.em_encode_s);
      ("vda/load_s", m.em_load_s);
      ("vda/words_alloc", float_of_int m.em_words_alloc);
    ]
  in
  Printf.eprintf "perf-gate: encode section done\n%!";
  let instances = instance_cells () in
  Printf.eprintf "perf-gate: instances section done\n%!";
  let solve_cells = perf_solve_cells () in
  Printf.eprintf "perf-gate: solve section done\n%!";
  let prop_cells, work_cells = props_cells () in
  Printf.eprintf "perf-gate: props section done\n%!";
  (* wall times may grow 25 % (geometric mean); the props section holds
     BCP throughput to its own contract — >10 % fewer propagations per
     second fails; the work those props runs did must not move at all *)
  let current =
    Obs.Gate.
      [
        { name = "encode"; kind = Ratio 1.25; cells = encode_cells };
        { name = "instances"; kind = Ratio 1.25; cells = instances };
        { name = "solve"; kind = Ratio 1.25; cells = solve_cells };
        { name = "props"; kind = Ratio (1. /. 0.9); cells = prop_cells };
        { name = "work"; kind = Exact; cells = work_cells };
      ]
  in
  if !bench_out <> "" then begin
    Obs.Gate.(
      to_file !bench_out (make (List.map (fun s -> (s.name, s.cells)) current)));
    Printf.printf "perf-gate: wrote %s\n" !bench_out
  end;
  if !baseline_file <> "" then
    gate ~baseline:(read_baseline Obs.Gate.of_file) current

(* ------------------------------------------------------------------ *)
(* Scaling: dimensional sweeps over generated instances, fitted to      *)
(* per-strategy power laws and gated on the exponents                   *)

(* [--scaling-handicap N] is the exponent gate's teeth-check. A uniform
   per-conflict spin (like --perf-handicap) only scales the constant C of
   t = C * x^e and leaves the exponent alone, so it could never fail an
   exponent gate; this one spins N * (nets/8)^4 iterations per conflict —
   the added cost grows two powers faster than any healthy curve here, so
   the fitted nets exponent inflates past any sane tolerance. *)
let scaling_handicap_job (j : Sweep.job) =
  match F.Generator.of_name j.Sweep.benchmark with
  | None -> j
  | Some (p, _) ->
      let r = float_of_int p.F.Generator.nets /. 8. in
      let spin =
        int_of_float (float_of_int !scaling_handicap *. (r ** 4.))
      in
      {
        j with
        Sweep.run =
          (fun ~budget ~certify ~telemetry ~fallback ->
            j.Sweep.run ~budget:(spin_budget spin budget) ~certify ~telemetry
              ~fallback);
      }

(* Best-of-N on the cheap cells only: a sub-second cell re-runs (the
   deterministic solver repeats identical work, so the minimum is the
   cleanest estimate of it), while an expensive cell keeps its first
   measurement — re-running those would burn budget to shave noise that
   is already relatively small. *)
let scaling_rerun_threshold = 1.0

let scaling_repeat_job (j : Sweep.job) =
  {
    j with
    Sweep.run =
      (fun ~budget ~certify ~telemetry ~fallback ->
        let decisive (run : Flow.run) =
          match run.Flow.outcome with
          | Flow.Routable _ | Flow.Unroutable -> true
          | Flow.Timeout | Flow.Memout -> false
        in
        let total (run : Flow.run) = Flow.total run.Flow.timings in
        let rec go best n =
          if
            n <= 1 || (not (decisive best))
            || total best > scaling_rerun_threshold
          then best
          else
            let next = j.Sweep.run ~budget ~certify ~telemetry ~fallback in
            let best =
              if decisive next && total next < total best then next else best
            in
            go best (n - 1)
        in
        go (j.Sweep.run ~budget ~certify ~telemetry ~fallback) !scaling_repeats);
  }

let section_scaling () =
  let grid =
    match String.lowercase_ascii !scaling_grid with
    | "smoke" -> Eng.Dims.smoke
    | "full" -> Eng.Dims.full
    | other ->
        prerr_endline
          (Printf.sprintf "--scaling-grid: expected smoke or full, got %S"
             other);
        exit 2
  in
  let strategies =
    List.map strategy (String.split_on_char ',' !scaling_strategies)
  in
  let cells = Eng.Dims.jobs grid ~strategies in
  let cells =
    if !scaling_handicap > 0 then List.map scaling_handicap_job cells
    else cells
  in
  let cells =
    if !scaling_repeats > 1 then List.map scaling_repeat_job cells else cells
  in
  Printf.printf "scaling: %s grid, %d cells, %d strategies\n%!" !scaling_grid
    (List.length cells) (List.length strategies);
  let records = run_sweep cells in
  print_string (Sweep.render_table records);
  print_endline (Sweep.summary records);
  let current = Eng.Dims.analyze records in
  print_string (Obs.Fit.render current);
  if !scaling_out <> "" then begin
    Obs.Fit.to_file !scaling_out current;
    Printf.printf "scaling: wrote %s\n" !scaling_out
  end;
  (* an exponent may grow by 1.5: run-to-run noise on the smoke grid is
     about +-0.8, the nets^4 handicap moves the nets exponents by about 4 *)
  if !baseline_file <> "" then
    let baseline = read_baseline Obs.Fit.of_file in
    gate
      ~baseline:(Obs.Gate.make [ ("exponents", Obs.Fit.exponents baseline) ])
      [
        {
          Obs.Gate.name = "exponents";
          kind = Exponent 1.5;
          cells = Obs.Fit.exponents current;
        };
      ]

let () =
  Arg.parse arg_spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !encode_bench_only then begin
    section_encode_bench ();
    exit 0
  end;
  if !scaling then begin
    section_scaling ();
    exit 0
  end;
  if !bench_out <> "" || !baseline_file <> "" then begin
    section_perf_gate ();
    exit 0
  end;
  let t0 = Unix.gettimeofday () in
  Printf.printf
    "fpgasat benchmark harness — reproduction of Velev & Gao, DATE 2008\n\
     budget per timed cell: %.0fs\n"
    !budget_seconds;
  if section_enabled "table1" then section_table1 ();
  if section_enabled "figure1" then section_figure1 ();
  if section_enabled "table2" then begin
    print_string (Report.section "Benchmark instances (synthetic MCNC stand-ins)");
    List.iter
      (fun pb ->
        Printf.printf "%s  w_min=%d\n"
          (Format.asprintf "%a" F.Benchmarks.pp_instance pb.inst)
          pb.w_min)
      (Lazy.force prepared);
    section_table2 ()
  end;
  if section_enabled "routable" then section_routable ();
  if section_enabled "solvers" then section_solvers ();
  if section_enabled "portfolio" then section_portfolio ();
  if section_enabled "ablations" then section_ablations ();
  if section_enabled "baselines" then section_baselines ();
  if section_enabled "extensions" then section_extensions ();
  if section_enabled "incremental" then section_incremental ();
  if section_enabled "channel" then section_channel ();
  if section_enabled "certify" then section_certify ();
  if !chaos then section_chaos ();
  Printf.printf "total harness wall time: %.1fs\n" (Unix.gettimeofday () -. t0)

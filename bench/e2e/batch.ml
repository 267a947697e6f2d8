(* The two batch workloads: one caller, one query at a time, each answer
   awaited before the next query (a closed loop of one — a CAD flow
   blocking on its verdict).

   - table2-s1: the s1 row of the paper's Table 2 — the seven Table 2
     encodings with s1 symmetry breaking on the siege preset, on the eight
     bundled benchmarks at w_min - 1, all unroutable — through the sweep
     engine ([Sweep.run], one job at a time, JSONL to a scratch file).
     Solver search is nearly all of its time; the seed shuffles the cell
     order, never the cells.
   - gen-routable: six generated routable instances, far larger than the
     bundled ones, asked at DSATUR bound + 2 under direct and muldirect,
     certified, through [Flow.submit] directly (the engine bypassed).
     Search is cheap there, so encode and solver load dominate; the seed
     picks the instances.

   A run repeats whole rounds of its query list, so every work count per
   query is exact and the query mix never depends on timing. *)

module Sat = Fpgasat_sat
module G = Fpgasat_graph
module E = Fpgasat_encodings
module F = Fpgasat_fpga
module C = Fpgasat_core
module Eng = Fpgasat_engine

let now = Env.now

type query = {
  bench : string;
  strategy : C.Strategy.t;
  route : F.Global_route.t;
  width : int;
  certify : bool;
  expect : string;  (** {!C.Flow.outcome_name} of the right answer. *)
}

type answer = {
  at : float;  (** When the query started. *)
  wall : float;
  verdict : string;
  certified : bool option;
  work : int * int * int;  (** Decisions, propagations, conflicts. *)
}

let work_of (s : Sat.Stats.t) = (s.Sat.Stats.decisions, s.propagations, s.conflicts)

let request (q : query) =
  C.Flow.(default_request |> with_strategy q.strategy |> with_certify q.certify)

let decided a = a.verdict = "routable" || a.verdict = "unroutable"
let is_wrong q a = decided a && (a.verdict <> q.expect || (q.certify && a.certified <> Some true))

let answer_of_run ~at wall (run : C.Flow.run) =
  {
    at;
    wall;
    verdict = C.Flow.outcome_name run.C.Flow.outcome;
    certified = run.C.Flow.certified;
    work = work_of run.C.Flow.solver_stats;
  }

let crashed ~at wall = { at; wall; verdict = "crashed"; certified = None; work = (0, 0, 0) }

(* ---------- table2-s1 ---------- *)

let table2_setup env () =
  let expected = Expected.load (Env.expected_json ()) in
  let specs =
    if env.Env.smoke then
      List.filter (fun s -> List.mem s.F.Benchmarks.name [ "alu2"; "too_large" ]) F.Benchmarks.specs
    else F.Benchmarks.specs
  in
  let strategies =
    List.map (C.Strategy.make ~symmetry:E.Symmetry.S1 ~solver:`Siege_like) E.Registry.table2
  in
  List.concat_map
    (fun spec ->
      let inst = F.Benchmarks.build spec in
      let e = Expected.find expected spec.F.Benchmarks.name in
      List.map
        (fun strategy ->
          {
            bench = e.Expected.name;
            strategy;
            route = inst.F.Benchmarks.route;
            width = e.Expected.w_min - 1;
            certify = false;
            expect = "unroutable";
          })
        strategies)
    specs

(* A probe before the first cell and after each one ([on_progress] fires
   once a cell's record is written), so each cell sits between two. *)
let table2_round env queries =
  let out = Filename.concat env.Env.dir "table2.jsonl" in
  let jobs =
    List.map (fun q -> Eng.Sweep.cell ~benchmark:q.bench q.strategy q.route ~width:q.width) queries
  in
  let timeline = Speed.create () in
  Speed.sample timeline;
  let config =
    {
      Eng.Sweep.default_config with
      Eng.Sweep.jobs = 1;
      out = Some out;
      on_progress = Some (fun _ -> Speed.sample timeline);
    }
  in
  let records = Eng.Sweep.run config jobs in
  Env.rm_rf out;
  let answers =
    List.mapi
      (fun k (r : Eng.Run_record.t) ->
        {
          at = Speed.interval_start timeline k;
          wall = r.Eng.Run_record.wall_seconds;
          verdict = Eng.Run_record.outcome_name r.Eng.Run_record.outcome;
          certified = r.Eng.Run_record.certified;
          work = work_of r.Eng.Run_record.stats;
        })
      records
  in
  (answers, timeline)

(* ---------- gen-routable ---------- *)

let gen_sizes smoke = if smoke then [ (8, 40) ] else [ (16, 400); (20, 640); (24, 900) ]

let gen_strategies = [ "direct/s1@minisat"; "muldirect/s1@minisat" ]

(* The reference is each instance's own DSATUR colouring, checked against
   the architecture here: it witnesses routability at the asked width
   without involving the solver. *)
let gen_setup env () =
  let strategies =
    List.map (fun n -> Result.get_ok (C.Strategy.of_name n)) gen_strategies
  in
  List.concat_map
    (fun (grid, nets) ->
      List.concat_map
        (fun seed ->
          let params = { F.Generator.default_params with grid; nets; seed } in
          let inst = F.Generator.build params F.Generator.Routable in
          let width = inst.F.Generator.dsatur_bound + 2 in
          let route = inst.F.Generator.route in
          (match F.Detailed_route.verify route ~width (G.Greedy.dsatur inst.F.Generator.graph) with
          | Ok () -> ()
          | Error _ -> failwith ("reference colouring rejected on " ^ F.Generator.name params F.Generator.Routable));
          List.map
            (fun strategy ->
              {
                bench = F.Generator.name params F.Generator.Routable;
                strategy;
                route;
                width;
                certify = true;
                expect = "routable";
              })
            strategies)
        [ env.Env.seed; env.Env.seed + 1 ])
    (gen_sizes env.Env.smoke)

(* Probed once per round: its queries take tens of milliseconds, too
   short to bracket each with probes of a few. *)
let flow_round _env queries =
  let timeline = Speed.create () in
  Speed.sample timeline;
  let answers =
    List.map
      (fun q ->
        let at = now () in
        match C.Flow.submit (request q) q.route ~width:q.width with
        | run -> answer_of_run ~at (now () -. at) run
        | exception C.Flow.Decode_mismatch _ -> crashed ~at (now () -. at))
      queries
  in
  Speed.sample timeline;
  (answers, timeline)

(* ---------- the run ---------- *)

type workload = {
  setup : Env.t -> unit -> query list;
  round : Env.t -> query list -> answer list * Speed.t;
      (** One round, between probes (see {!Speed}). *)
  tail : float;  (** Highest percentile with at least 10 samples beyond it. *)
  sweep : bool;  (** Rounds run through the sweep engine. *)
}

let table2 = { setup = table2_setup; round = table2_round; tail = 0.8; sweep = true }
let gen_routable = { setup = gen_setup; round = flow_round; tail = 0.9; sweep = false }

(* The same queries in the same order, through {!Pipeline} with spans,
   each between probes so its layer times can be put on reference time
   like the untraced run's. *)
let traced_pass sp queries =
  let timeline = Speed.create () in
  Speed.sample timeline;
  let answers =
    List.map
      (fun q ->
        let at = now () in
        let run = Spans.query sp (fun () -> Pipeline.submit sp (request q) q.route ~width:q.width) in
        let a = answer_of_run ~at (now () -. at) run in
        Speed.sample timeline;
        a)
      queries
  in
  (answers, timeline)

let run env w =
  let queries, setup_s = Env.timed_setup env ~setup:(w.setup env) ~teardown:ignore in
  let window = if env.Env.trace then env.Env.seconds /. 2. else env.Env.seconds in
  let start = now () in
  (* whole rounds; another starts only if it should end inside the window *)
  let rec rounds i acc =
    let order = Env.shuffle ~seed:env.Env.seed ~salt:i queries in
    let answers, timeline = w.round env order in
    let acc = (order, answers, timeline) :: acc in
    if (not env.Env.smoke) && now () -. start +. Speed.raw_seconds timeline <= window then
      rounds (i + 1) acc
    else List.rev acc
  in
  let rounds = rounds 0 [] in
  let asked = List.concat_map (fun (o, _, _) -> o) rounds in
  let answers = List.concat_map (fun (_, a, _) -> a) rounds in
  let total f = List.fold_left (fun acc (_, _, t) -> acc +. f t) 0. rounds in
  let raw = total Speed.raw_seconds and reference = total Speed.reference_seconds in
  let scaled =
    Array.of_list
      (List.concat_map (fun (_, a, t) -> List.map (fun a -> a.wall *. Speed.factor_at t a.at) a) rounds)
  in
  let n = List.length answers in
  let walls = Array.of_list (List.map (fun a -> a.wall) answers) in
  let count p = List.length (List.filter p answers) in
  let wrong = List.length (List.filter Fun.id (List.map2 is_wrong asked answers)) in
  let failed = count (fun a -> a.verdict = "crashed") in
  Printf.printf
    "%s: %d queries in %d round(s), %.2f s (%.2f reference s); %d wrong, %d failed; raw p50 %.4f ms; \
     tail = p%.0f (%d samples beyond)\n"
    env.Env.workload n (List.length rounds) raw reference wrong failed
    (1000. *. Metric.median walls) (100. *. w.tail)
    (int_of_float (float_of_int n *. (1. -. w.tail)));
  let end_to_end =
    [
      ("setup_s", setup_s);
      ("throughput_qps", float_of_int n /. reference);
      ("latency_p50_ms", 1000. *. Metric.median scaled);
      ("latency_tail_ms", 1000. *. Metric.percentile scaled w.tail);
      ("decided_ratio", float_of_int (count decided) /. float_of_int n);
      ("peak_rss_mb", Metric.peak_rss_mb "self");
    ]
  in
  let fidelity_ok, metrics =
    if not env.Env.trace then (true, end_to_end)
    else begin
      Metric.print_metrics env.Env.workload end_to_end;
      let sp = Spans.create ~tid:0 in
      let traced, timeline = traced_pass sp asked in
      (* the traced pass must answer and work exactly as the untraced one *)
      let mismatches =
        List.length
          (List.filter Fun.id
             (List.map2 (fun a b -> a.verdict <> b.verdict || a.work <> b.work) answers traced))
      in
      if mismatches > 0 then
        Printf.printf "FIDELITY: %d traced queries differ from the untraced run\n" mismatches;
      (* in reference time, so the machine's swings between the two passes
         do not land in the residual *)
      let untraced_ms = 1000. *. Metric.sum scaled /. float_of_int n in
      let layers_ms =
        1000.
        *. Metric.sum (Array.mapi (fun k s -> s *. Speed.factor timeline k) (Spans.layer_seconds_by_query sp))
        /. float_of_int n
      in
      let residual = untraced_ms -. layers_ms in
      Printf.printf
        "untraced %.4f reference ms/query = layer self time %.4f + residual %.4f (%.1f%%)\n"
        untraced_ms layers_ms residual (100. *. residual /. untraced_ms);
      Spans.print_table stdout [ sp ];
      let path = Filename.concat Env.out_root ("trace-" ^ env.Env.workload ^ ".json") in
      Spans.write_chrome path [ sp ];
      Printf.printf "chrome trace: %s\n" path;
      let extra =
        [
          ("core.flow_residual_ms", residual);
          ( "engine.sweep_overhead_ms",
            if w.sweep then 1000. *. (raw -. Metric.sum walls) /. float_of_int n else 0. );
          ("obs.trace_overhead_ratio", Speed.reference_seconds timeline /. reference);
        ]
      in
      (mismatches = 0, Spans.layer_metrics [ sp ] ~extra)
    end
  in
  Metric.print_metrics env.Env.workload metrics;
  { Metric.correct = wrong = 0 && fidelity_ok; attempted = n; failed; metrics }

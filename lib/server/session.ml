module Sat = Fpgasat_sat
module G = Fpgasat_graph
module F = Fpgasat_fpga
module C = Fpgasat_core

type t = {
  benchmark : string;
  strategy : C.Strategy.t;
  route : F.Global_route.t;
  ladder : C.Incremental_width.ladder;
  cnf_vars : int;
  cnf_clauses : int;
  key_prefix : string;  (* "cnf-structural-hash|strategy|" of [cache_key] *)
  prepare_seconds : float;
  mutex : Mutex.t;
  (* the colouring in the fewest colours this session has seen, with that
     number: at first the DSATUR colouring, then the min_width result or a
     routable ladder answer. Lowered under [mutex]; atomic so that the
     widths it answers never wait for a query in progress *)
  best : (int * G.Coloring.t) Atomic.t;
}

let create ~benchmark strategy (inst : F.Benchmarks.instance) =
  let t0 = Unix.gettimeofday () in
  let ladder = C.Incremental_width.prepare ~strategy inst.F.Benchmarks.graph in
  let { C.Width_bounds.upper; coloring; _ } =
    C.Incremental_width.bounds ladder
  in
  let cnf_vars, cnf_clauses = C.Incremental_width.cnf_size ladder in
  {
    benchmark;
    strategy;
    route = inst.F.Benchmarks.route;
    ladder;
    cnf_vars;
    cnf_clauses;
    key_prefix =
      Printf.sprintf "%Lx|%s|"
        (C.Incremental_width.cnf_hash ladder)
        (C.Strategy.name strategy);
    prepare_seconds = Unix.gettimeofday () -. t0;
    mutex = Mutex.create ();
    best = Atomic.make (upper, coloring);
  }

let benchmark t = t.benchmark
let strategy t = t.strategy
let route t = t.route
let bounds t =
  let b = C.Incremental_width.bounds t.ladder in
  C.Width_bounds.(b.lower, b.upper)
let prepare_seconds t = t.prepare_seconds

let cache_key t ~width ~budget_signature ~certify =
  String.concat ""
    [
      t.key_prefix;
      string_of_int width;
      "|";
      budget_signature;
      "|";
      string_of_bool certify;
    ]

(* Cumulative solver statistics, copied so a later query cannot mutate the
   snapshot under us. *)
let snapshot (s : Sat.Stats.t) = { s with Sat.Stats.lbd_hist = Array.copy s.lbd_hist }

(* Per-query attribution: counters are deltas, watermark fields keep the
   cumulative value (they are maxima, not sums). *)
let diff (before : Sat.Stats.t) (after : Sat.Stats.t) =
  let d = Sat.Stats.create () in
  d.Sat.Stats.decisions <- after.decisions - before.decisions;
  d.Sat.Stats.propagations <- after.propagations - before.propagations;
  d.Sat.Stats.conflicts <- after.conflicts - before.conflicts;
  d.Sat.Stats.restarts <- after.restarts - before.restarts;
  d.Sat.Stats.learnt_clauses <- after.learnt_clauses - before.learnt_clauses;
  d.Sat.Stats.learnt_literals <- after.learnt_literals - before.learnt_literals;
  d.Sat.Stats.deleted_clauses <- after.deleted_clauses - before.deleted_clauses;
  d.Sat.Stats.inprocess_rounds <- after.inprocess_rounds - before.inprocess_rounds;
  d.Sat.Stats.inprocess_strengthened <-
    after.inprocess_strengthened - before.inprocess_strengthened;
  d.Sat.Stats.inprocess_literals <-
    after.inprocess_literals - before.inprocess_literals;
  d.Sat.Stats.max_decision_level <- after.max_decision_level;
  Array.iteri
    (fun i b -> d.Sat.Stats.lbd_hist.(i) <- after.lbd_hist.(i) - b)
    before.Sat.Stats.lbd_hist;
  d.Sat.Stats.peak_heap_words <- after.peak_heap_words;
  d

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let fewest_colors t = fst (Atomic.get t.best)

(* under [mutex], so the only writer at a time *)
let saw t coloring =
  let n = G.Coloring.num_colors coloring in
  if n < fewest_colors t then Atomic.set t.best (n, coloring)

let route_warm ?(budget = Sat.Solver.no_budget) ?(telemetry = false)
    ?(certify = false) t ~width =
  if width < 1 then invalid_arg "Session.route_warm: width < 1";
  (* graph and CNF translation are amortised over the session: this query
     paid neither *)
  let finish ~solving ~stats ?words_allocated ?certify answer =
    C.Flow.finish ?certify ?words_allocated ~strategy:t.strategy
      ~cnf_size:(t.cnf_vars, t.cnf_clauses)
      ~timings:{ C.Flow.to_graph = 0.; to_cnf = 0.; solving }
      ~stats t.route ~width answer
  in
  (* below the clique, or in at least the best colouring's colours, the
     stored certificates answer without the solver, so without its lock *)
  let stored evidence answer =
    finish ~solving:0. ~stats:(Sat.Stats.create ())
      ?words_allocated:(if telemetry then Some 0 else None)
      ?certify:(if certify then Some evidence else None)
      answer
  in
  let { C.Width_bounds.clique; lower; _ } = C.Incremental_width.bounds t.ladder in
  let colors, coloring = Atomic.get t.best in
  if width < lower then stored (`Clique clique) `Uncolorable
  else if width >= colors then stored `Unsolved (`Colorable coloring)
  else if certify then
    invalid_arg "Session.route_warm: certify in the ladder band"
  else
    locked t (fun () ->
        let before = snapshot (C.Incremental_width.stats t.ladder) in
        let (answer, solving), words_allocated =
          C.Flow.metered ~telemetry (fun () ->
              let t0 = Unix.gettimeofday () in
              let answer = C.Incremental_width.query ~budget t.ladder ~width in
              (answer, Unix.gettimeofday () -. t0))
        in
        (match answer with
        | `Colorable coloring -> saw t coloring
        | `Uncolorable | `Timeout | `Memout -> ());
        let stats = diff before (snapshot (C.Incremental_width.stats t.ladder)) in
        finish ~solving ~stats ?words_allocated answer)

let min_width ?(budget = Sat.Solver.no_budget) t =
  let lower = (C.Incremental_width.bounds t.ladder).C.Width_bounds.lower in
  if fewest_colors t = lower then Ok lower
  else
    locked t (fun () ->
        match C.Incremental_width.walk_down ~budget t.ladder with
        | Ok (w, coloring) ->
            saw t coloring;
            Ok w
        | Error _ as e -> e)

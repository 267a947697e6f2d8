module Sat = Fpgasat_sat
module G = Fpgasat_graph
module F = Fpgasat_fpga
module C = Fpgasat_core

type t = {
  benchmark : string;
  strategy : C.Strategy.t;
  route : F.Global_route.t;
  ladder : C.Incremental_width.ladder;
  greedy : G.Coloring.t;
  lower : int;
  upper : int;
  cnf_vars : int;
  cnf_clauses : int;
  cnf_hash : int64;
  prepare_seconds : float;
  mutex : Mutex.t;
  (* the fewest colours of any colouring this session has seen: the DSATUR
     colouring's, lowered by min_width results and warm routable answers.
     Lowered under [mutex]; atomic so that deciding where a certified
     request goes never waits for a query in progress *)
  fewest : int Atomic.t;
}

let create ~benchmark strategy (inst : F.Benchmarks.instance) =
  let t0 = Unix.gettimeofday () in
  let ladder = C.Incremental_width.prepare ~strategy inst.F.Benchmarks.graph in
  let lower, upper = C.Incremental_width.bounds ladder in
  let cnf_vars, cnf_clauses = C.Incremental_width.cnf_size ladder in
  {
    benchmark;
    strategy;
    route = inst.F.Benchmarks.route;
    ladder;
    greedy = G.Greedy.dsatur inst.F.Benchmarks.graph;
    lower;
    upper;
    cnf_vars;
    cnf_clauses;
    cnf_hash = C.Incremental_width.cnf_hash ladder;
    prepare_seconds = Unix.gettimeofday () -. t0;
    mutex = Mutex.create ();
    fewest = Atomic.make upper;
  }

let benchmark t = t.benchmark
let strategy t = t.strategy
let route t = t.route
let bounds t = (t.lower, t.upper)
let prepare_seconds t = t.prepare_seconds

let cache_key t ~width ~budget_signature ~certify =
  Printf.sprintf "%Lx|%s|%d|%s|%b" t.cnf_hash
    (C.Strategy.name t.strategy)
    width budget_signature certify

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

let fewest_colors t = Atomic.get t.fewest
let saw_colors t n = Atomic.set t.fewest (min (Atomic.get t.fewest) n)

let route_warm ?(budget = Sat.Solver.no_budget) ?(telemetry = false)
    ?(certify = false) t ~width =
  locked t (fun () ->
      (* graph and CNF translation are amortised over the session: this
         query paid neither *)
      let finish ~solving ~stats ?words_allocated evidence answer =
        C.Flow.finish
          ?certify:(if certify then Some (Lazy.force evidence) else None)
          ?words_allocated ~strategy:t.strategy
          ~cnf_size:(t.cnf_vars, t.cnf_clauses)
          ~timings:{ C.Flow.to_graph = 0.; to_cnf = 0.; solving }
          ~stats t.route ~width answer
      in
      if width >= t.upper then
        (* the DSATUR colouring already fits: answer without touching the
           solver *)
        finish ~solving:0. ~stats:(Sat.Stats.create ())
          ?words_allocated:(if telemetry then Some 0 else None)
          (lazy `Unsolved) (`Colorable t.greedy)
      else begin
        let before = snapshot (C.Incremental_width.stats t.ladder) in
        let ((answer, result), solving), words_allocated =
          C.Flow.metered ~telemetry (fun () ->
              let t0 = Unix.gettimeofday () in
              let query = C.Incremental_width.query ~budget t.ladder ~width in
              (query, Unix.gettimeofday () -. t0))
        in
        (match answer with
        | `Colorable coloring -> saw_colors t (G.Coloring.num_colors coloring)
        | `Uncolorable | `Timeout | `Memout -> ());
        let stats = diff before (snapshot (C.Incremental_width.stats t.ladder)) in
        finish ~solving ~stats ?words_allocated
          (lazy (`Solved (C.Incremental_width.cnf t.ladder, result)))
          answer
      end)

let min_width ?(budget = Sat.Solver.no_budget) t =
  locked t (fun () ->
      match C.Incremental_width.walk_down ~budget t.ladder with
      | Ok (w, _) ->
          saw_colors t w;
          Ok w
      | Error _ as e -> e)

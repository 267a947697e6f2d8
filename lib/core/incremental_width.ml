module Sat = Fpgasat_sat
module G = Fpgasat_graph
module E = Fpgasat_encodings

type ladder = {
  csp : E.Csp.t;
  encoded : E.Csp_encode.t;
  solver : Sat.Solver.solver;
  selectors : Sat.Lit.var array;
  bounds : Width_bounds.t;
  cnf_hash : int64;
  mutable queries : int;
}

(* The encoded problem plus one selector per colour: assuming it switches
   the colour off. The formula starts as a flat arena copy of the encoded
   CNF (a blit, not a clause-by-clause rebuild); each selector clause
   (~sel_c | ~pattern(v, c)) expands the indexing pattern. *)
let augment encoded ~upper =
  let cnf = Sat.Cnf.copy encoded.E.Csp_encode.cnf in
  let selectors = Array.init upper (fun _ -> Sat.Cnf.fresh_var cnf) in
  for v = 0 to E.Csp.num_variables encoded.E.Csp_encode.csp - 1 do
    for c = 0 to upper - 1 do
      Sat.Cnf.start_clause cnf;
      Sat.Cnf.push_lit cnf (Sat.Lit.neg_of selectors.(c));
      List.iter
        (fun l -> Sat.Cnf.push_lit cnf (Sat.Lit.negate l))
        (E.Csp_encode.pattern_lits encoded v c);
      Sat.Cnf.commit_clause cnf
    done
  done;
  (cnf, selectors)

let prepare ?(strategy = Strategy.best_single) graph =
  let bounds = Width_bounds.of_graph graph in
  let upper = bounds.Width_bounds.upper in
  let csp = E.Csp.make graph ~k:upper in
  let encoded =
    E.Csp_encode.encode ?symmetry:strategy.Strategy.symmetry
      strategy.Strategy.encoding csp
  in
  let cnf, selectors = augment encoded ~upper in
  let solver = Sat.Solver.create ~config:strategy.Strategy.solver cnf in
  {
    csp;
    encoded;
    solver;
    selectors;
    bounds;
    cnf_hash = Sat.Cnf.structural_hash encoded.E.Csp_encode.cnf;
    queries = 0;
  }

let bounds ladder = ladder.bounds
let queries ladder = ladder.queries
let stats ladder = Sat.Solver.solver_stats ladder.solver
let cnf_hash ladder = ladder.cnf_hash

let cnf_size ladder =
  let cnf = ladder.encoded.E.Csp_encode.cnf in
  (Sat.Cnf.num_vars cnf, Sat.Cnf.num_clauses cnf)

let query ?(budget = Sat.Solver.no_budget) ladder ~width =
  if width < 1 then invalid_arg "Incremental_width.query: width < 1";
  (* the formula is sized at the DSATUR upper bound; any larger width is
     equivalent (a colouring within [upper] colours fits it a fortiori) *)
  let upper = ladder.bounds.Width_bounds.upper in
  let w = min width upper in
  ladder.queries <- ladder.queries + 1;
  let assumptions =
    List.init (upper - w) (fun i ->
        Sat.Lit.pos ladder.selectors.(w + i))
  in
  match Sat.Solver.solve_with ~budget ~assumptions ladder.solver with
  | Sat.Solver.Q_unsat -> `Uncolorable
  | Sat.Solver.Q_unknown -> `Timeout
  | Sat.Solver.Q_memout -> `Memout
  | Sat.Solver.Q_sat model ->
      `Colorable (Flow.decode ladder.encoded ladder.csp model)

(* walk downward; a model using fewer colours lets us skip widths, and
   [best] always holds a colouring within [w + 1] colours. When the clique
   meets the DSATUR bound, the stored colouring is already minimal and a
   query at the bound would prove nothing more. *)
let walk_down ?(budget = Sat.Solver.no_budget) ladder =
  let { Width_bounds.lower; upper; coloring = dsatur; _ } = ladder.bounds in
  let rec walk w best =
    let settled () =
      match best with
      | Some coloring -> Ok (w + 1, coloring)
      | None -> Error "DSATUR width came out uncolourable"
    in
    if w < lower then settled ()
    else
      match query ~budget ladder ~width:w with
      | `Uncolorable -> settled ()
      | `Timeout -> Error "budget exhausted during width search"
      | `Memout -> Error "memory budget exhausted during width search"
      | `Colorable coloring ->
          let used = G.Coloring.num_colors coloring in
          walk (min (w - 1) (used - 1)) (Some coloring)
  in
  if lower = upper then Ok (upper, dsatur) else walk upper None

type search_result = {
  w_min : int;
  coloring : G.Coloring.t;
  queries : int;
  stats : Sat.Stats.t;
}

let minimal_colors ?strategy ?budget graph =
  match prepare ?strategy graph with
  | exception Invalid_argument m -> Error m
  | ladder -> (
      match walk_down ?budget ladder with
      | exception Flow.Decode_mismatch _ ->
          Error "decoded colouring failed verification"
      | Error _ as err -> err
      | Ok (w_min, coloring) ->
          Ok { w_min; coloring; queries = ladder.queries; stats = stats ladder })

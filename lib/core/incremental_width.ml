module Sat = Fpgasat_sat
module G = Fpgasat_graph
module E = Fpgasat_encodings

type ladder = {
  csp : E.Csp.t;
  encoded : E.Csp_encode.t;
  solver : Sat.Solver.solver;
  selectors : Sat.Lit.var array;
  lower : int;
  upper : int;
  cnf_hash : int64;
  mutable queries : int;
}

(* The encoded problem plus one selector per colour: assuming it switches
   the colour off. The formula starts as a flat arena copy of the encoded
   CNF (a blit, not a clause-by-clause rebuild). Under definitional
   emission the encoder's (vertex, colour) definitions are already in the
   copied arena, so the selector clauses stay binary (~sel_c | ~d_v,c)
   instead of re-expanding the indexing pattern. Deterministic: a rebuild
   yields the same formula, selector variables included. *)
let augment encoded ~upper =
  let cnf = Sat.Cnf.copy encoded.E.Csp_encode.cnf in
  let selectors = Array.init upper (fun _ -> Sat.Cnf.fresh_var cnf) in
  for v = 0 to E.Csp.num_variables encoded.E.Csp_encode.csp - 1 do
    for c = 0 to upper - 1 do
      Sat.Cnf.start_clause cnf;
      Sat.Cnf.push_lit cnf (Sat.Lit.neg_of selectors.(c));
      (match E.Csp_encode.definition encoded v c with
      | Some d -> Sat.Cnf.push_lit cnf (Sat.Lit.negate d)
      | None ->
          List.iter
            (fun l -> Sat.Cnf.push_lit cnf (Sat.Lit.negate l))
            (E.Csp_encode.pattern_lits encoded v c));
      Sat.Cnf.commit_clause cnf
    done
  done;
  (cnf, selectors)

let prepare ?(strategy = Strategy.best_single) graph =
  let lower = max 1 (G.Clique.lower_bound graph) in
  let upper = max lower (G.Greedy.upper_bound graph) in
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
    lower;
    upper;
    cnf_hash = Sat.Cnf.structural_hash encoded.E.Csp_encode.cnf;
    queries = 0;
  }

let bounds ladder = (ladder.lower, ladder.upper)
let queries ladder = ladder.queries
let stats ladder = Sat.Solver.solver_stats ladder.solver
let cnf_hash ladder = ladder.cnf_hash

let cnf_size ladder =
  let cnf = ladder.encoded.E.Csp_encode.cnf in
  (Sat.Cnf.num_vars cnf, Sat.Cnf.num_clauses cnf)

(* rebuilt rather than kept: certified warm answers are rare, and a kept
   copy would grow every session's resident set for all its life *)
let cnf ladder = fst (augment ladder.encoded ~upper:ladder.upper)

let query ?(budget = Sat.Solver.no_budget) ladder ~width =
  if width < 1 then invalid_arg "Incremental_width.query: width < 1";
  (* the formula is sized at the DSATUR upper bound; any larger width is
     equivalent (a colouring within [upper] colours fits it a fortiori) *)
  let w = min width ladder.upper in
  ladder.queries <- ladder.queries + 1;
  let assumptions =
    List.init (ladder.upper - w) (fun i ->
        Sat.Lit.pos ladder.selectors.(w + i))
  in
  match Sat.Solver.solve_with ~budget ~assumptions ladder.solver with
  | Sat.Solver.Q_unsat -> (`Uncolorable, Sat.Solver.Unsat)
  | Sat.Solver.Q_unknown -> (`Timeout, Sat.Solver.Unknown)
  | Sat.Solver.Q_memout -> (`Memout, Sat.Solver.Memout)
  | Sat.Solver.Q_sat model ->
      ( `Colorable (Flow.decode ladder.encoded ladder.csp model),
        Sat.Solver.Sat model )

(* walk downward; a model using fewer colours lets us skip widths, and
   [best] always holds a colouring within [w + 1] colours *)
let walk_down ?(budget = Sat.Solver.no_budget) ladder =
  let rec walk w best =
    let settled () =
      match best with
      | Some coloring -> Ok (w + 1, coloring)
      | None -> Error "DSATUR width came out uncolourable"
    in
    if w < ladder.lower then settled ()
    else
      match fst (query ~budget ladder ~width:w) with
      | `Uncolorable -> settled ()
      | `Timeout -> Error "budget exhausted during width search"
      | `Memout -> Error "memory budget exhausted during width search"
      | `Colorable coloring ->
          let used = G.Coloring.num_colors coloring in
          walk (min (w - 1) (used - 1)) (Some coloring)
  in
  walk ladder.upper None

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

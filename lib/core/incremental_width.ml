module Sat = Fpgasat_sat
module G = Fpgasat_graph
module E = Fpgasat_encodings

(* What answers the widths strictly between the bounds: the persistent
   solver over the encoded problem plus one selector per colour, and what
   reads its models. Neither holds the CNF. *)
type solving = {
  csp : E.Csp.t;
  decode : bool array -> G.Coloring.t;
  solver : Sat.Solver.solver;
  selectors : Sat.Lit.var array;
}

type ladder = {
  bounds : Width_bounds.t;
  cnf_hash : int64;
  cnf_size : int * int;
  solving : solving option; (* [None] when the bounds meet *)
  mutable queries : int;
}

(* One selector per colour, appended to the encoded CNF in place:
   assuming it switches the colour off. Each selector clause
   (~sel_c | ~pattern(v, c)) expands the indexing pattern. *)
let add_selectors encoded ~upper =
  let cnf = encoded.E.Csp_encode.cnf in
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
  selectors

(* The CNF is encoded even when the bounds meet: its hash keys the
   server's answer cache and its size goes into every run record. It is
   garbage once the solver has loaded it. *)
let prepare ?(strategy = Strategy.best_single) ?bounds graph =
  let bounds =
    match bounds with Some b -> b | None -> Width_bounds.of_graph graph
  in
  let upper = bounds.Width_bounds.upper in
  let csp = E.Csp.make graph ~k:upper in
  let encoded =
    E.Csp_encode.encode ?symmetry:strategy.Strategy.symmetry
      strategy.Strategy.encoding csp
  in
  let cnf = encoded.E.Csp_encode.cnf in
  let cnf_hash = Sat.Cnf.structural_hash cnf in
  let cnf_size = (Sat.Cnf.num_vars cnf, Sat.Cnf.num_clauses cnf) in
  let solving =
    if bounds.Width_bounds.lower = upper then None
    else
      let selectors = add_selectors encoded ~upper in
      Some
        {
          csp;
          decode = E.Csp_encode.decoder encoded;
          solver = Sat.Solver.create ~config:strategy.Strategy.solver cnf;
          selectors;
        }
  in
  { bounds; cnf_hash; cnf_size; solving; queries = 0 }

let bounds ladder = ladder.bounds
let queries ladder = ladder.queries
let has_solver ladder = Option.is_some ladder.solving

let stats ladder =
  match ladder.solving with
  | Some s -> Sat.Solver.solver_stats s.solver
  | None -> Sat.Stats.create ()

let cnf_hash ladder = ladder.cnf_hash
let cnf_size ladder = ladder.cnf_size

let query ?(budget = Sat.Solver.no_budget) ladder ~width =
  if width < 1 then invalid_arg "Incremental_width.query: width < 1";
  let { Width_bounds.lower; upper; coloring; _ } = ladder.bounds in
  match ladder.solving with
  | None ->
      (* the bounds meet: the clique refutes every width below them and
         the DSATUR colouring fits every other *)
      if width < lower then `Uncolorable else `Colorable coloring
  | Some s -> (
      (* the formula is sized at the DSATUR upper bound; any larger width
         is equivalent (a colouring within [upper] colours fits it a
         fortiori) *)
      let w = min width upper in
      ladder.queries <- ladder.queries + 1;
      let assumptions =
        List.init (upper - w) (fun i -> Sat.Lit.pos s.selectors.(w + i))
      in
      match Sat.Solver.solve_with ~budget ~assumptions s.solver with
      | Sat.Solver.Q_unsat -> `Uncolorable
      | Sat.Solver.Q_unknown -> `Timeout
      | Sat.Solver.Q_memout -> `Memout
      | Sat.Solver.Q_sat model -> `Colorable (Flow.decode s.decode s.csp model))

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

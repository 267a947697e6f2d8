module Sat = Fpgasat_sat
module G = Fpgasat_graph

type t = {
  encoding : Encoding.t;
  csp : Csp.t;
  layout : Layout.t;
  cnf : Sat.Cnf.t;
  symmetry : Symmetry.heuristic option;
}

let slot_var layout v s = (v * layout.Layout.num_slots) + s
let boolean_var t v s = slot_var t.layout v s

let lits_of_pattern t v pattern =
  List.map
    (fun (s, pol) -> Sat.Lit.make (boolean_var t v s) pol)
    pattern

let pattern_lits t v value = lits_of_pattern t v t.layout.Layout.patterns.(value)

(* Emission goes through the Cnf clause builder: literals are pushed into
   the arena's scratch buffer directly, so no intermediate lists (or the
   [@] concatenations the conflict clauses used to pay for) are built.
   Plain recursion rather than [List.iter] keeps the per-clause path free
   of closure allocation. *)
let rec push_pattern t v = function
  | [] -> ()
  | (s, pol) :: rest ->
      Sat.Cnf.push_lit t.cnf (Sat.Lit.make (boolean_var t v s) pol);
      push_pattern t v rest

let rec push_negated t v = function
  | [] -> ()
  | (s, pol) :: rest ->
      Sat.Cnf.push_lit t.cnf (Sat.Lit.make (boolean_var t v s) (not pol));
      push_negated t v rest

(* The CNF's final (literals, clauses): Encoding_stats' totals plus one
   clause per forbidden (vertex, colour) pair, which holds the colour's
   negated pattern. *)
let size layout csp forbidden =
  let stats = Encoding_stats.of_layout layout in
  let num_vertices = Csp.num_variables csp in
  let num_edges = G.Graph.num_edges csp.Csp.graph in
  let symmetry_literals =
    List.fold_left
      (fun acc (_, colour) -> acc + List.length layout.Layout.patterns.(colour))
      0 forbidden
  in
  ( Encoding_stats.total_literals stats ~num_vertices ~num_edges
    + symmetry_literals,
    Encoding_stats.total_clauses stats ~num_vertices ~num_edges
    + List.length forbidden )

let encode ?symmetry encoding csp =
  let layout = Encoding.layout encoding csp.Csp.k in
  let n = Csp.num_variables csp in
  let forbidden =
    match symmetry with
    | None -> []
    | Some h -> Symmetry.forbidden h csp.Csp.graph ~k:csp.Csp.k
  in
  let cnf = Sat.Cnf.create ~capacity:(size layout csp forbidden) () in
  Sat.Cnf.ensure_vars cnf (n * layout.Layout.num_slots);
  let t = { encoding; csp; layout; cnf; symmetry } in
  (* per-variable side clauses *)
  for v = 0 to n - 1 do
    List.iter
      (fun clause ->
        Sat.Cnf.start_clause cnf;
        push_pattern t v clause;
        Sat.Cnf.commit_clause cnf)
      layout.Layout.side
  done;
  (* conflict clauses: one per edge per common domain value *)
  G.Graph.iter_edges
    (fun u v ->
      for value = 0 to csp.Csp.k - 1 do
        let p = layout.Layout.patterns.(value) in
        Sat.Cnf.start_clause cnf;
        push_negated t u p;
        push_negated t v p;
        Sat.Cnf.commit_clause cnf
      done)
    t.csp.Csp.graph;
  (* symmetry-breaking clauses *)
  List.iter
    (fun (v, colour) ->
      Sat.Cnf.start_clause cnf;
      push_negated t v layout.Layout.patterns.(colour);
      Sat.Cnf.commit_clause cnf)
    forbidden;
  t

exception No_selected_value of int

let selected_values layout model v =
  let slot_value s =
    let var = slot_var layout v s in
    var < Array.length model && model.(var)
  in
  Layout.selected_values layout slot_value

let selected_values_of t model v = selected_values t.layout model v

(* bound to the layout and the variable count alone, so the closure does
   not keep the CNF alive *)
let decoder t =
  let layout = t.layout and n = Csp.num_variables t.csp in
  fun model ->
    Array.init n (fun v ->
        match selected_values layout model v with
        | value :: _ -> value
        | [] -> raise (No_selected_value v))

let decode t model = decoder t model

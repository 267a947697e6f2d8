type t = {
  vars_per_csp_var : int;
  side_clauses_per_csp_var : int;
  side_literals_per_csp_var : int;
  conflict_clauses_per_edge : int;
  conflict_literals_per_edge : int;
}

let of_layout (layout : Layout.t) =
  let side_literals =
    List.fold_left (fun acc clause -> acc + List.length clause) 0 layout.Layout.side
  in
  let conflict_literals =
    Array.fold_left
      (fun acc pattern -> acc + (2 * List.length pattern))
      0 layout.Layout.patterns
  in
  {
    vars_per_csp_var = layout.Layout.num_slots;
    side_clauses_per_csp_var = List.length layout.Layout.side;
    side_literals_per_csp_var = side_literals;
    conflict_clauses_per_edge = layout.Layout.num_values;
    conflict_literals_per_edge = conflict_literals;
  }

let predict encoding ~k = of_layout (Encoding.layout encoding k)
let total_vars t ~num_vertices = num_vertices * t.vars_per_csp_var

let total_clauses t ~num_vertices ~num_edges =
  (num_vertices * t.side_clauses_per_csp_var)
  + (num_edges * t.conflict_clauses_per_edge)

let total_literals t ~num_vertices ~num_edges =
  (num_vertices * t.side_literals_per_csp_var)
  + (num_edges * t.conflict_literals_per_edge)

let pp fmt t =
  Format.fprintf fmt
    "vars/v=%d side-clauses/v=%d side-lits/v=%d conflict-clauses/e=%d \
     conflict-lits/e=%d"
    t.vars_per_csp_var t.side_clauses_per_csp_var t.side_literals_per_csp_var
    t.conflict_clauses_per_edge t.conflict_literals_per_edge

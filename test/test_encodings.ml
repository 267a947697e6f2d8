(* Tests for the encodings library: Table 1's verbatim clause sets, ITE tree
   structure (Fig. 1), layout invariants of all 15 encodings, hierarchical
   partitioning, symmetry-breaking sequences, and brute-force agreement of
   the full encode-solve-decode loop. *)

module Sat = Fpgasat_sat
module G = Fpgasat_graph
module E = Fpgasat_encodings
module Layout = E.Layout
module Ite = E.Ite_tree
module Enc = E.Encoding
module Sym = E.Symmetry

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let enc name =
  match Enc.of_name name with Ok e -> e | Error m -> Alcotest.fail m

let extended_encodings = E.Registry.all @ E.Registry.multi_level_extensions

let clause_set cnf =
  Sat.Cnf.fold_clauses cnf ~init:[] ~f:(fun acc arena off len ->
      (List.init len (fun k -> Sat.Lit.to_dimacs arena.(off + k))
      |> List.sort compare)
      :: acc)
  |> List.sort compare

let two_vertex_cnf encoding =
  let g = G.Graph.of_edges 2 [ (0, 1) ] in
  let csp = E.Csp.make g ~k:3 in
  let encoded = E.Csp_encode.encode encoding csp in
  encoded.E.Csp_encode.cnf

(* --- Table 1: the exact clause sets for the worked 2-vertex example --- *)

let test_table1_log () =
  (* slots per vertex: 2 (slot 0 = LSB). v gets DIMACS vars 1,2; w gets 3,4 *)
  let expected =
    List.sort compare
      (List.map (List.sort compare)
         [
           [ -1; -2 ] (* v: exclude code 3 *);
           [ -3; -4 ] (* w: exclude code 3 *);
           [ 1; 2; 3; 4 ] (* conflict on value 0 *);
           [ -1; 2; -3; 4 ] (* conflict on value 1 *);
           [ 1; -2; 3; -4 ] (* conflict on value 2 *);
         ])
  in
  Alcotest.(check (list (list int)))
    "log clauses" expected
    (clause_set (two_vertex_cnf (enc "log")))

let test_table1_direct () =
  let expected =
    List.sort compare
      (List.map (List.sort compare)
         [
           [ 1; 2; 3 ];
           [ 4; 5; 6 ];
           [ -1; -2 ];
           [ -1; -3 ];
           [ -2; -3 ];
           [ -4; -5 ];
           [ -4; -6 ];
           [ -5; -6 ];
           [ -1; -4 ];
           [ -2; -5 ];
           [ -3; -6 ];
         ])
  in
  Alcotest.(check (list (list int)))
    "direct clauses" expected
    (clause_set (two_vertex_cnf (enc "direct")))

let test_table1_muldirect () =
  let expected =
    List.sort compare
      (List.map (List.sort compare)
         [ [ 1; 2; 3 ]; [ 4; 5; 6 ]; [ -1; -4 ]; [ -2; -5 ]; [ -3; -6 ] ])
  in
  Alcotest.(check (list (list int)))
    "muldirect clauses" expected
    (clause_set (two_vertex_cnf (enc "muldirect")))

(* --- ITE trees (Fig. 1) --- *)

let test_ite_linear_structure () =
  List.iter
    (fun k ->
      let t = Ite.linear k in
      Alcotest.(check int) "leaves" k (Ite.num_leaves t);
      Alcotest.(check int) "slots" (max 0 (k - 1)) (Ite.num_slots t);
      Alcotest.(check bool) "well formed" true (Ite.well_formed t);
      Alcotest.(check (list int))
        "leaf order" (List.init k Fun.id) (Ite.leaves_in_order t))
    [ 1; 2; 3; 7; 13 ]

let test_ite_linear_patterns () =
  let pats = Ite.paths (Ite.linear 4) in
  let find v = List.assoc v pats in
  Alcotest.(check (list (pair int bool))) "v0" [ (0, true) ] (find 0);
  Alcotest.(check (list (pair int bool)))
    "v1" [ (0, false); (1, true) ] (find 1);
  Alcotest.(check (list (pair int bool)))
    "v3" [ (0, false); (1, false); (2, false) ] (find 3)

let ceil_log2 k =
  let rec go acc = if 1 lsl acc >= k then acc else go (acc + 1) in
  go 0

let test_ite_balanced_depths () =
  List.iter
    (fun k ->
      let t = Ite.balanced k in
      Alcotest.(check int) "leaves" k (Ite.num_leaves t);
      Alcotest.(check bool) "well formed" true (Ite.well_formed t);
      let bound = ceil_log2 k in
      List.iter
        (fun (_, path) ->
          let d = List.length path in
          if k > 1 && d <> bound && d <> bound - 1 then
            Alcotest.fail (Printf.sprintf "depth %d out of bounds for k=%d" d k);
          (* per-level slots: slot index equals depth along the path *)
          List.iteri
            (fun depth (slot, _) -> Alcotest.(check int) "slot = depth" depth slot)
            path)
        (Ite.paths t))
    [ 1; 2; 3; 4; 5; 6; 7; 8; 13; 16; 21 ]

let test_ite_render_nonempty () =
  let s = Ite.render (Ite.balanced 5) in
  Alcotest.(check bool) "render mentions last leaf" true (contains s "v4")

(* --- Fig. 1(d): worked indexing patterns of ITE-log-2+ITE-linear, k=13 --- *)

let test_fig1d_patterns () =
  let layout = Enc.layout (enc "ITE-log-2+ITE-linear") 13 in
  Alcotest.(check int) "13 values" 13 layout.Layout.num_values;
  let p v = List.sort compare layout.Layout.patterns.(v) in
  Alcotest.(check (list (pair int bool)))
    "v4" [ (0, true); (1, false); (2, true) ] (p 4);
  Alcotest.(check (list (pair int bool)))
    "v5" [ (0, true); (1, false); (2, false); (3, true) ] (p 5);
  Alcotest.(check (list (pair int bool)))
    "v6" [ (0, true); (1, false); (2, false); (3, false) ] (p 6)

let test_fig1d_conflict_clause () =
  (* Sect. 4's worked conflict clause for v4: (-i0 | i1 | -i2 | -j0 | j1 | -j2) *)
  let g = G.Graph.of_edges 2 [ (0, 1) ] in
  let csp = E.Csp.make g ~k:13 in
  let encoded = E.Csp_encode.encode (enc "ITE-log-2+ITE-linear") csp in
  let nslots = encoded.E.Csp_encode.layout.Layout.num_slots in
  let expected =
    List.sort compare [ -1; 2; -3; -(nslots + 1); nslots + 2; -(nslots + 3) ]
  in
  let found = List.exists (fun c -> c = expected) (clause_set encoded.E.Csp_encode.cnf) in
  Alcotest.(check bool) "worked conflict clause present" true found

(* --- layout invariants for every encoding --- *)

let slot_assignments n = List.init (1 lsl n) (fun m s -> (m lsr s) land 1 = 1)

let side_ok layout assignment =
  List.for_all
    (fun clause -> List.exists (fun (s, pol) -> assignment s = pol) clause)
    layout.Layout.side

let test_layouts_validate () =
  List.iter
    (fun e ->
      List.iter
        (fun k ->
          match Layout.validate (Enc.layout e k) with
          | Ok () -> ()
          | Error msg ->
              Alcotest.fail (Printf.sprintf "%s k=%d: %s" (Enc.name e) k msg))
        [ 1; 2; 3; 4; 5; 6; 7; 8; 13 ])
    extended_encodings

let test_layouts_complete_and_exclusive () =
  List.iter
    (fun e ->
      List.iter
        (fun k ->
          let layout = Enc.layout e k in
          if layout.Layout.num_slots <= 12 then
            List.iter
              (fun assignment ->
                if side_ok layout assignment then begin
                  let selected = Layout.selected_values layout assignment in
                  if selected = [] then
                    Alcotest.fail
                      (Printf.sprintf "%s k=%d: no value selected" (Enc.name e) k);
                  if layout.Layout.exclusive && List.length selected > 1 then
                    Alcotest.fail
                      (Printf.sprintf "%s k=%d: several values selected"
                         (Enc.name e) k)
                end)
              (slot_assignments layout.Layout.num_slots))
        [ 1; 2; 3; 5; 8; 13 ])
    extended_encodings

let test_unshared_ablation_layouts () =
  List.iter
    (fun name ->
      let e = enc (name ^ "!unshared") in
      List.iter
        (fun k ->
          let layout = Enc.layout e k in
          (match Layout.validate layout with
          | Ok () -> ()
          | Error msg -> Alcotest.fail (Printf.sprintf "%s k=%d: %s" name k msg));
          if layout.Layout.num_slots <= 12 then
            List.iter
              (fun assignment ->
                if side_ok layout assignment then
                  if Layout.selected_values layout assignment = [] then
                    Alcotest.fail
                      (Printf.sprintf "unshared %s k=%d: nothing selected" name k))
              (slot_assignments layout.Layout.num_slots))
        [ 2; 3; 5; 7 ])
    [ "direct-3+direct"; "muldirect-3+muldirect"; "ITE-linear-2+direct" ]

let test_vars_per_csp_variable () =
  let slots e k = (Enc.layout (enc e) k).Layout.num_slots in
  Alcotest.(check int) "log k=13" 4 (slots "log" 13);
  Alcotest.(check int) "direct k=13" 13 (slots "direct" 13);
  Alcotest.(check int) "ITE-linear k=13" 12 (slots "ite-linear" 13);
  Alcotest.(check int) "ITE-log k=13" 4 (slots "ite-log" 13);
  Alcotest.(check int) "muldirect-3+muldirect k=13" (3 + 5)
    (slots "muldirect-3+muldirect" 13);
  Alcotest.(check int) "ITE-linear-2+muldirect k=13" (2 + 5)
    (slots "ITE-linear-2+muldirect" 13);
  Alcotest.(check int) "ITE-log-2+ITE-linear k=13" (2 + 3)
    (slots "ITE-log-2+ITE-linear" 13)

(* --- hierarchy partition --- *)

let test_partition () =
  Alcotest.(check (list int)) "13/4" [ 4; 3; 3; 3 ] (E.Hierarchy.partition 13 4);
  Alcotest.(check (list int)) "13/2" [ 7; 6 ] (E.Hierarchy.partition 13 2);
  Alcotest.(check (list int)) "6/3" [ 2; 2; 2 ] (E.Hierarchy.partition 6 3);
  Alcotest.(check (list int)) "2/3" [ 1; 1 ] (E.Hierarchy.partition 2 3);
  Alcotest.(check (list int)) "1/5" [ 1 ] (E.Hierarchy.partition 1 5)

let prop_partition =
  QCheck2.Test.make ~count:500 ~name:"partition is balanced and sums to k"
    QCheck2.Gen.(pair (int_range 1 60) (int_range 1 12))
    (fun (k, m) ->
      let sizes = E.Hierarchy.partition k m in
      let sum = List.fold_left ( + ) 0 sizes in
      let mx = List.fold_left max 0 sizes and mn = List.fold_left min k sizes in
      sum = k
      && mx - mn <= 1
      && List.length sizes = min m k
      && List.sort (fun a b -> compare b a) sizes = sizes)

(* --- size predictions --- *)

(* Every registry encoding: the prediction must match the encoder to the
   variable, clause AND literal. *)
let prop_stats_predict_exactly =
  QCheck2.Test.make ~count:300
    ~name:"Encoding_stats predicts the encoder's output exactly"
    QCheck2.Gen.(
      let* n = int_range 1 6 in
      let* k = int_range 1 6 in
      let* edges =
        list_repeat (2 * n) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
      in
      let* which = int_range 0 (List.length extended_encodings - 1) in
      return (n, k, List.filter (fun (u, v) -> u <> v) edges, which))
    (fun (n, k, edges, which) ->
      let e = List.nth extended_encodings which in
      let g = G.Graph.of_edges n edges in
      let csp = E.Csp.make g ~k in
      let encoded = E.Csp_encode.encode e csp in
      let stats = E.Encoding_stats.predict e ~k in
      let nv = G.Graph.num_vertices g and ne = G.Graph.num_edges g in
      Sat.Cnf.num_vars encoded.E.Csp_encode.cnf
      = E.Encoding_stats.total_vars stats ~num_vertices:nv
      && Sat.Cnf.num_clauses encoded.E.Csp_encode.cnf
         = E.Encoding_stats.total_clauses stats ~num_vertices:nv ~num_edges:ne
      && Sat.Cnf.num_lits encoded.E.Csp_encode.cnf
         = E.Encoding_stats.total_literals stats ~num_vertices:nv ~num_edges:ne)

(* The encoder sizes its CNF from the prediction before emitting anything,
   so the literal arena and the clause index are allocated once and never
   regrow: the held words equal the prediction exactly. With symmetry
   breaking, one clause per forbidden (vertex, colour) pair joins the
   prediction. *)
let test_encode_allocates_once () =
  let n = 14 and k = 5 in
  let edges =
    List.init 40 (fun i -> (i mod n, ((7 * i) + 3) mod n))
    |> List.filter (fun (u, v) -> u <> v)
  in
  let g = G.Graph.of_edges n edges in
  let csp = E.Csp.make g ~k in
  let nv = G.Graph.num_vertices g and ne = G.Graph.num_edges g in
  let s1 = Option.get (Sym.of_name "s1") in
  List.iter
    (fun e ->
      let stats = E.Encoding_stats.predict e ~k in
      let lits = E.Encoding_stats.total_literals stats ~num_vertices:nv ~num_edges:ne in
      let clauses = E.Encoding_stats.total_clauses stats ~num_vertices:nv ~num_edges:ne in
      let cnf = (E.Csp_encode.encode e csp).E.Csp_encode.cnf in
      Alcotest.(check int)
        (Enc.name e ^ ": words held, no symmetry")
        (lits + (2 * clauses))
        (Sat.Cnf.live_words cnf);
      let cnf = (E.Csp_encode.encode ~symmetry:s1 e csp).E.Csp_encode.cnf in
      Alcotest.(check int)
        (Enc.name e ^ "/s1: one clause per forbidden pair")
        (clauses + List.length (Sym.forbidden s1 g ~k))
        (Sat.Cnf.num_clauses cnf);
      Alcotest.(check int)
        (Enc.name e ^ "/s1: words held")
        (Sat.Cnf.num_lits cnf + (2 * Sat.Cnf.num_clauses cnf))
        (Sat.Cnf.live_words cnf))
    extended_encodings

let test_stats_examples () =
  let stats = E.Encoding_stats.predict (enc "direct") ~k:3 in
  Alcotest.(check int) "direct vars" 3 stats.E.Encoding_stats.vars_per_csp_var;
  Alcotest.(check int) "direct side (1 ALO + 3 AMO)" 4
    stats.E.Encoding_stats.side_clauses_per_csp_var;
  Alcotest.(check int) "conflicts per edge = k" 3
    stats.E.Encoding_stats.conflict_clauses_per_edge;
  let mul = E.Encoding_stats.predict (enc "muldirect") ~k:3 in
  Alcotest.(check int) "muldirect side (ALO only)" 1
    mul.E.Encoding_stats.side_clauses_per_csp_var;
  let ite = E.Encoding_stats.predict (enc "ite-linear") ~k:3 in
  Alcotest.(check int) "ITE has no side clauses" 0
    ite.E.Encoding_stats.side_clauses_per_csp_var

(* --- encoding names --- *)

let test_names_roundtrip () =
  List.iter
    (fun e ->
      match Enc.of_name (Enc.name e) with
      | Ok e' ->
          Alcotest.(check int)
            (Printf.sprintf "roundtrip %s" (Enc.name e))
            0 (Enc.compare e e')
      | Error m -> Alcotest.fail m)
    (extended_encodings @ [ enc "direct-3+muldirect!unshared" ])

let test_bad_names_rejected () =
  List.iter
    (fun s ->
      match Enc.of_name s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("should not parse: " ^ s))
    [ "nope"; "direct-0+direct"; "direct-3+"; "a+b+c"; "";
      (* a +defs suffix names no encoding *)
      "log+defs"; "ITE-linear-2+muldirect+defs";
      "direct-3+muldirect!unshared+defs" ]

let test_multi_level_shape () =
  (* a 3-level direct-2+direct-2+direct on 8 values: level 1 splits into 2
     subdomains of 4, level 2 into 2 of 2, bottom direct over 2 *)
  let layout = Enc.layout (enc "direct-2+direct-2+direct") 8 in
  Alcotest.(check int) "slots" (2 + 2 + 2) layout.Layout.num_slots;
  Alcotest.(check int) "values" 8 layout.Layout.num_values;
  (* value 5 sits in subdomain 1 (values 4-7), sub-subdomain 0 (4-5),
     offset 1 *)
  Alcotest.(check (list (pair int bool)))
    "value 5 pattern"
    [ (1, true); (2, true); (5, true) ]
    (List.sort compare layout.Layout.patterns.(5))

let test_registry_counts () =
  Alcotest.(check int) "2 previous" 2 (List.length E.Registry.previously_used);
  Alcotest.(check int) "12 new" 12 (List.length E.Registry.new_encodings);
  Alcotest.(check int) "15 total" 15 (List.length E.Registry.all);
  Alcotest.(check int) "7 in table 2" 7 (List.length E.Registry.table2)

let test_in_registry () =
  List.iter
    (fun e ->
      Alcotest.(check bool) (Enc.name e ^ " is in registry") true
        (E.Registry.in_registry e))
    extended_encodings;
  Alcotest.(check bool) "mixed hierarchy is not" false
    (E.Registry.in_registry (enc "direct-2+log"));
  (* of_name is strict: parseable but out-of-registry shapes are rejected
     (Encoding.of_name stays the permissive exploration path) *)
  (match E.Registry.of_name "direct-2+log" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "of_name accepted an out-of-registry shape");
  (match E.Encoding.of_name "direct-2+log" with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  (* ... but admits the !unshared ablation (the bench sweeps it as a
     strategy) *)
  (match E.Registry.of_name "direct-3+muldirect!unshared" with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  match E.Registry.of_name "nonsense" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "of_name accepted an unparseable name"

(* --- symmetry-breaking heuristics --- *)

let path_graph n = G.Graph.of_edges n (List.init (n - 1) (fun i -> (i, i + 1)))
let star_graph n = G.Graph.of_edges n (List.init (n - 1) (fun i -> (0, i + 1)))

let test_b1_starts_at_max_degree () =
  let g = star_graph 6 in
  match Sym.sequence Sym.B1 g ~k:4 with
  | hub :: rest ->
      Alcotest.(check int) "hub first" 0 hub;
      Alcotest.(check int) "k-2 neighbours follow" 2 (List.length rest);
      List.iter
        (fun v ->
          Alcotest.(check bool) "neighbour of hub" true (G.Graph.mem_edge g 0 v))
        rest
  | [] -> Alcotest.fail "empty sequence"

let test_s1_takes_top_degrees () =
  let g = star_graph 6 in
  match Sym.sequence Sym.S1 g ~k:3 with
  | [ a; _ ] -> Alcotest.(check int) "hub has top degree" 0 a
  | other ->
      Alcotest.fail (Printf.sprintf "expected 2 vertices, got %d" (List.length other))

let test_sequences_distinct_and_short () =
  let g = path_graph 10 in
  List.iter
    (fun h ->
      List.iter
        (fun k ->
          let seq = Sym.sequence h g ~k in
          Alcotest.(check bool) "length <= k-1" true (List.length seq <= k - 1);
          Alcotest.(check int) "distinct" (List.length seq)
            (List.length (List.sort_uniq compare seq)))
        [ 2; 3; 5; 9 ])
    Sym.all

let test_forbidden_shape () =
  let g = star_graph 5 in
  let forb = Sym.forbidden Sym.S1 g ~k:3 in
  Alcotest.(check int) "three forbidden pairs" 3 (List.length forb);
  match Sym.sequence Sym.S1 g ~k:3 with
  | [ v0; v1 ] ->
      Alcotest.(check bool) "v0 loses colour 1" true (List.mem (v0, 1) forb);
      Alcotest.(check bool) "v0 loses colour 2" true (List.mem (v0, 2) forb);
      Alcotest.(check bool) "v1 loses colour 2" true (List.mem (v1, 2) forb)
  | _ -> Alcotest.fail "expected 2 vertices"

(* The sequences as first defined: each comparison rebuilt both vertices'
   (degree, neighbour-degree sum, -index) triples and compared them
   polymorphically. [Sym.sequence] scores each vertex once and compares
   ints, and must order every vertex the same way. *)
let reference_sequence heuristic g ~k =
  let degree_order vertices =
    let score v = (G.Graph.degree g v, G.Graph.neighbor_degree_sum g v, -v) in
    List.sort (fun a b -> compare (score b) (score a)) vertices
  in
  let rec take n = function
    | [] -> []
    | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest
  in
  let n = G.Graph.num_vertices g in
  if n = 0 || k <= 1 then []
  else
    match heuristic with
    | Sym.S1 -> take (k - 1) (degree_order (List.init n Fun.id))
    | Sym.B1 ->
        let first = G.Graph.max_degree_vertex g in
        first :: take (k - 2) (degree_order (G.Graph.neighbors g first))

(* Few vertices and many edges make ties in degree and in neighbour-degree
   sum common, so the index tie-break is exercised too. *)
let prop_sequence_matches_reference =
  QCheck2.Test.make ~count:500 ~name:"sequence matches the reference order"
    QCheck2.Gen.(
      let* n = int_range 1 40 in
      let* edges =
        list_size (int_range 0 (3 * n))
          (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
      in
      let* k = int_range 0 (n + 2) in
      return (n, List.filter (fun (u, v) -> u <> v) edges, k))
    (fun (n, edges, k) ->
      let g = G.Graph.of_edges n edges in
      List.for_all
        (fun h ->
          List.for_all
            (fun k -> Sym.sequence h g ~k = reference_sequence h g ~k)
            [ k; 2; 3; 7; n ])
        Sym.all)

(* --- end-to-end: encode, solve, decode, verify --- *)

let brute_force_colorable g k =
  let n = G.Graph.num_vertices g in
  let coloring = Array.make (max n 1) 0 in
  let rec go v =
    if v = n then true
    else
      let ok c =
        List.for_all (fun w -> w > v || coloring.(w) <> c) (G.Graph.neighbors g v)
      in
      let rec try_color c =
        if c >= k then false
        else if ok c then begin
          coloring.(v) <- c;
          go (v + 1) || try_color (c + 1)
        end
        else try_color (c + 1)
      in
      try_color 0
  in
  n = 0 || go 0

let gen_small_graph =
  QCheck2.Gen.(
    let* n = int_range 1 7 in
    let* k = int_range 1 4 in
    let* edges =
      list_repeat
        (min 12 (n * (n - 1) / 2))
        (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
    in
    return (n, k, List.filter (fun (u, v) -> u <> v) edges))

let check_encoding_on e ?symmetry (n, k, edges) =
  let g = G.Graph.of_edges n edges in
  let csp = E.Csp.make g ~k in
  let encoded = E.Csp_encode.encode ?symmetry e csp in
  let expected = brute_force_colorable g k in
  match fst (Fpgasat_sat.Solver.solve encoded.E.Csp_encode.cnf) with
  | Sat.Solver.Sat model ->
      expected
      &&
      let coloring = E.Csp_encode.decode encoded model in
      G.Coloring.is_proper g ~k coloring
  | Sat.Solver.Unsat -> not expected
  | Sat.Solver.Unknown | Sat.Solver.Memout -> false

(* --- mixed bottoms (Sect. 4 generality) --- *)

let mixed_layout k =
  E.Hierarchy.compose_mixed ~top:E.Simple_encoding.Direct ~top_vars:3
    ~bottoms:
      [ E.Simple_encoding.Ite_linear; E.Simple_encoding.Muldirect;
        E.Simple_encoding.Log ]
    k

let test_mixed_layout_validates () =
  List.iter
    (fun k ->
      match Layout.validate (mixed_layout k) with
      | Ok () -> ()
      | Error msg -> Alcotest.fail (Printf.sprintf "mixed k=%d: %s" k msg))
    [ 1; 2; 3; 5; 8; 13 ]

let test_mixed_layout_complete () =
  List.iter
    (fun k ->
      let layout = mixed_layout k in
      if layout.Layout.num_slots <= 12 then
        List.iter
          (fun assignment ->
            if side_ok layout assignment then
              if Layout.selected_values layout assignment = [] then
                Alcotest.fail (Printf.sprintf "mixed k=%d: nothing selected" k))
          (slot_assignments layout.Layout.num_slots))
    [ 2; 3; 5; 8 ]

let prop_mixed_agrees_with_brute_force =
  QCheck2.Test.make ~count:120 ~name:"mixed-bottom hierarchy solves colouring"
    gen_small_graph
    (fun (n, k, edges) ->
      let g = G.Graph.of_edges n edges in
      let layout = mixed_layout k in
      (* hand-rolled encode using the mixed layout *)
      let cnf = Fpgasat_sat.Cnf.create () in
      let nslots = layout.Layout.num_slots in
      Fpgasat_sat.Cnf.ensure_vars cnf (n * nslots);
      let lits v pattern =
        List.map (fun (s, pol) -> Sat.Lit.make ((v * nslots) + s) pol) pattern
      in
      let neg v pattern = List.map Sat.Lit.negate (lits v pattern) in
      for v = 0 to n - 1 do
        List.iter (fun c -> Fpgasat_sat.Cnf.add_clause cnf (lits v c)) layout.Layout.side
      done;
      G.Graph.iter_edges
        (fun u v ->
          Array.iter
            (fun p -> Fpgasat_sat.Cnf.add_clause cnf (neg u p @ neg v p))
            layout.Layout.patterns)
        g;
      let expected = brute_force_colorable g k in
      match fst (Sat.Solver.solve cnf) with
      | Sat.Solver.Sat model ->
          expected
          && List.for_all
               (fun v ->
                 let slot_value s =
                   let var = (v * nslots) + s in
                   var < Array.length model && model.(var)
                 in
                 Layout.selected_values layout slot_value <> [])
               (List.init n Fun.id)
          &&
          let coloring =
            Array.init n (fun v ->
                let slot_value s =
                  let var = (v * nslots) + s in
                  var < Array.length model && model.(var)
                in
                List.hd (Layout.selected_values layout slot_value))
          in
          G.Coloring.is_proper g ~k coloring
      | Sat.Solver.Unsat -> not expected
      | Sat.Solver.Unknown | Sat.Solver.Memout -> false)
  [@@ocamlformat "disable"]


let props_encodings_agree_with_brute_force =
  List.map
    (fun e ->
      QCheck2.Test.make ~count:120
        ~name:(Printf.sprintf "encode/solve/decode: %s" (Enc.name e))
        gen_small_graph
        (fun input -> check_encoding_on e input))
    extended_encodings

let props_symmetry_preserves_answer =
  List.concat_map
    (fun h ->
      List.map
        (fun e ->
          QCheck2.Test.make ~count:80
            ~name:
              (Printf.sprintf "symmetry %s preserves answer: %s" (Sym.name h)
                 (Enc.name e))
            gen_small_graph
            (fun input -> check_encoding_on e ~symmetry:h input))
        [
          enc "muldirect";
          enc "log";
          enc "ITE-linear-2+muldirect";
          enc "direct-3+direct";
          enc "ITE-log";
        ])
    Sym.all

let prop_unshared_agrees =
  QCheck2.Test.make ~count:120 ~name:"unshared ablation agrees with brute force"
    gen_small_graph
    (fun input -> check_encoding_on (enc "direct-3+muldirect!unshared") input)

let test_decode_rejects_corrupt_model () =
  let g = G.Graph.of_edges 2 [ (0, 1) ] in
  let csp = E.Csp.make g ~k:3 in
  let encoded = E.Csp_encode.encode (enc "direct") csp in
  let all_false = Array.make (Sat.Cnf.num_vars encoded.E.Csp_encode.cnf) false in
  match E.Csp_encode.decode encoded all_false with
  | exception E.Csp_encode.No_selected_value _ -> ()
  | _ -> Alcotest.fail "decode accepted a corrupt model"

let test_csp_basics () =
  let g = G.Graph.of_edges 3 [ (0, 1); (1, 2); (0, 2) ] in
  let csp = E.Csp.make g ~k:2 in
  Alcotest.(check bool) "triangle needs 3 colours" true (E.Csp.trivially_unsat csp);
  let csp3 = E.Csp.make g ~k:3 in
  Alcotest.(check bool) "k=3 not trivially unsat" false (E.Csp.trivially_unsat csp3);
  Alcotest.(check bool) "solution check" true (E.Csp.solution_ok csp3 [| 0; 1; 2 |]);
  Alcotest.(check bool) "bad solution rejected" false
    (E.Csp.solution_ok csp3 [| 0; 0; 2 |]);
  Alcotest.check_raises "k=0 rejected" (Invalid_argument "Csp.make: k < 1")
    (fun () -> ignore (E.Csp.make g ~k:0))

let qtests = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "encodings"
    [
      ( "table1",
        [
          Alcotest.test_case "log" `Quick test_table1_log;
          Alcotest.test_case "direct" `Quick test_table1_direct;
          Alcotest.test_case "muldirect" `Quick test_table1_muldirect;
        ] );
      ( "ite-tree",
        [
          Alcotest.test_case "linear structure" `Quick test_ite_linear_structure;
          Alcotest.test_case "linear patterns" `Quick test_ite_linear_patterns;
          Alcotest.test_case "balanced depths" `Quick test_ite_balanced_depths;
          Alcotest.test_case "render" `Quick test_ite_render_nonempty;
        ] );
      ( "fig1d",
        [
          Alcotest.test_case "worked patterns" `Quick test_fig1d_patterns;
          Alcotest.test_case "worked conflict clause" `Quick
            test_fig1d_conflict_clause;
        ] );
      ( "layouts",
        [
          Alcotest.test_case "validate" `Quick test_layouts_validate;
          Alcotest.test_case "complete and exclusive" `Quick
            test_layouts_complete_and_exclusive;
          Alcotest.test_case "unshared ablation" `Quick
            test_unshared_ablation_layouts;
          Alcotest.test_case "variable budgets" `Quick test_vars_per_csp_variable;
        ] );
      ( "hierarchy",
        Alcotest.test_case "partition examples" `Quick test_partition
        :: qtests [ prop_partition ] );
      ( "mixed",
        Alcotest.test_case "validates" `Quick test_mixed_layout_validates
        :: Alcotest.test_case "complete" `Quick test_mixed_layout_complete
        :: qtests [ prop_mixed_agrees_with_brute_force ] );
      ( "stats",
        Alcotest.test_case "examples" `Quick test_stats_examples
        :: Alcotest.test_case "encode allocates once" `Quick
             test_encode_allocates_once
        :: qtests [ prop_stats_predict_exactly ] );
      ( "names",
        [
          Alcotest.test_case "roundtrip" `Quick test_names_roundtrip;
          Alcotest.test_case "multi-level shape" `Quick test_multi_level_shape;
          Alcotest.test_case "bad names rejected" `Quick test_bad_names_rejected;
          Alcotest.test_case "registry counts" `Quick test_registry_counts;
          Alcotest.test_case "in_registry" `Quick test_in_registry;
        ] );
      ( "symmetry",
        [
          Alcotest.test_case "b1 starts at max degree" `Quick
            test_b1_starts_at_max_degree;
          Alcotest.test_case "s1 takes top degrees" `Quick test_s1_takes_top_degrees;
          Alcotest.test_case "sequences distinct" `Quick
            test_sequences_distinct_and_short;
          Alcotest.test_case "forbidden pairs" `Quick test_forbidden_shape;
        ]
        @ qtests [ prop_sequence_matches_reference ] );
      ("agreement", qtests props_encodings_agree_with_brute_force);
      ("symmetry-preservation", qtests props_symmetry_preserves_answer);
      ("unshared", qtests [ prop_unshared_agrees ]);
      ( "decode",
        [
          Alcotest.test_case "corrupt model rejected" `Quick
            test_decode_rejects_corrupt_model;
          Alcotest.test_case "csp basics" `Quick test_csp_basics;
        ] );
    ]

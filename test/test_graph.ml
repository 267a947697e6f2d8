(* Tests for the graph-colouring substrate: graph structure, DIMACS .col
   round trips, colouring verification, greedy/DSATUR bounds, the clique
   lower bound, and DOT export. *)

module G = Fpgasat_graph
module Graph = G.Graph
module Coloring = G.Coloring

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* --- graph structure --- *)

let test_graph_basics () =
  let g = Graph.create 4 in
  Graph.add_edge g 0 1;
  Graph.add_edge g 1 2;
  Graph.add_edge g 1 0;
  (* duplicate, other direction *)
  Alcotest.(check int) "vertices" 4 (Graph.num_vertices g);
  Alcotest.(check int) "edges deduped" 2 (Graph.num_edges g);
  Alcotest.(check bool) "mem 0-1" true (Graph.mem_edge g 0 1);
  Alcotest.(check bool) "mem 1-0" true (Graph.mem_edge g 1 0);
  Alcotest.(check bool) "no 0-2" false (Graph.mem_edge g 0 2);
  Alcotest.(check int) "degree 1" 2 (Graph.degree g 1);
  Alcotest.(check int) "degree isolated" 0 (Graph.degree g 3);
  Alcotest.(check (list int)) "neighbors of 1" [ 0; 2 ] (Graph.neighbors g 1)

let test_graph_self_loop_rejected () =
  let g = Graph.create 2 in
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_edge: self-loop")
    (fun () -> Graph.add_edge g 1 1)

let test_graph_out_of_range () =
  let g = Graph.create 2 in
  Alcotest.check_raises "oob" (Invalid_argument "Graph: vertex out of range")
    (fun () -> Graph.add_edge g 0 5)

let test_graph_iter_edges_once () =
  let g = Graph.of_edges 5 [ (0, 1); (2, 1); (3, 4); (0, 4) ] in
  let seen = ref [] in
  Graph.iter_edges (fun u v -> seen := (u, v) :: !seen) g;
  Alcotest.(check int) "each edge once" 4 (List.length !seen);
  List.iter
    (fun (u, v) -> Alcotest.(check bool) "smaller first" true (u < v))
    !seen

let test_graph_degree_helpers () =
  let g = Graph.of_edges 5 [ (0, 1); (0, 2); (0, 3); (1, 2) ] in
  Alcotest.(check int) "max degree vertex" 0 (Graph.max_degree_vertex g);
  Alcotest.(check int) "neighbor degree sum of 3" 3 (Graph.neighbor_degree_sum g 3);
  Alcotest.(check int) "neighbor degree sum of 0" 5 (Graph.neighbor_degree_sum g 0)

let test_graph_copy_independent () =
  let g = Graph.of_edges 3 [ (0, 1) ] in
  let g2 = Graph.copy g in
  Graph.add_edge g 1 2;
  Alcotest.(check int) "copy unchanged" 1 (Graph.num_edges g2);
  Alcotest.(check int) "original grew" 2 (Graph.num_edges g)

(* --- colouring --- *)

let triangle = Graph.of_edges 3 [ (0, 1); (1, 2); (0, 2) ]

let test_coloring_check () =
  Alcotest.(check bool) "proper" true (Coloring.is_proper triangle ~k:3 [| 0; 1; 2 |]);
  Alcotest.(check bool) "monochromatic" false
    (Coloring.is_proper triangle ~k:3 [| 0; 0; 2 |]);
  Alcotest.(check bool) "out of range" false
    (Coloring.is_proper triangle ~k:2 [| 0; 1; 2 |]);
  match Coloring.check triangle ~k:3 [| 0; 0; 1 |] with
  | Error (Coloring.Monochromatic_edge (0, 1)) -> ()
  | Error v ->
      Alcotest.fail (Format.asprintf "wrong violation: %a" Coloring.pp_violation v)
  | Ok () -> Alcotest.fail "expected violation"

let test_coloring_length_mismatch () =
  Alcotest.check_raises "length" (Invalid_argument "Coloring.check: length mismatch")
    (fun () -> ignore (Coloring.check triangle ~k:3 [| 0; 1 |]))

let test_num_colors () =
  Alcotest.(check int) "num colors" 3 (Coloring.num_colors [| 0; 2; 1; 0 |]);
  Alcotest.(check int) "empty" 0 (Coloring.num_colors [||])

(* --- greedy bounds --- *)

let petersen =
  (* 3-chromatic, clique number 2: outer 5-cycle, inner pentagram, spokes *)
  Graph.of_edges 10
    [
      (0, 1); (1, 2); (2, 3); (3, 4); (4, 0);
      (5, 7); (7, 9); (9, 6); (6, 8); (8, 5);
      (0, 5); (1, 6); (2, 7); (3, 8); (4, 9);
    ]

let test_greedy_proper () =
  let d = G.Greedy.dsatur petersen in
  Alcotest.(check bool) "dsatur proper" true
    (Coloring.is_proper petersen ~k:(Coloring.num_colors d) d)

let test_dsatur_triangle_exact () =
  Alcotest.(check int) "triangle" 3 (G.Greedy.upper_bound triangle);
  Alcotest.(check int) "petersen dsatur = 3" 3 (G.Greedy.upper_bound petersen)

let test_clique_bounds () =
  Alcotest.(check int) "triangle clique" 3 (G.Clique.lower_bound triangle);
  Alcotest.(check int) "petersen clique" 2 (G.Clique.lower_bound petersen);
  let clique = G.Clique.greedy triangle in
  Alcotest.(check int) "clique size" 3 (List.length clique);
  Alcotest.(check int) "empty graph" 0 (G.Clique.lower_bound (Graph.create 0))

let prop_clique_le_dsatur =
  QCheck2.Test.make ~count:300 ~name:"clique lower bound <= DSATUR upper bound"
    QCheck2.Gen.(
      let* n = int_range 1 12 in
      let* edges =
        list_repeat (2 * n) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
      in
      return (n, List.filter (fun (u, v) -> u <> v) edges))
    (fun (n, edges) ->
      let g = Graph.of_edges n edges in
      G.Clique.lower_bound g <= G.Greedy.upper_bound g)

let prop_clique_is_clique =
  QCheck2.Test.make ~count:300 ~name:"greedy clique is a clique"
    QCheck2.Gen.(
      let* n = int_range 1 12 in
      let* edges =
        list_repeat (2 * n) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
      in
      return (n, List.filter (fun (u, v) -> u <> v) edges))
    (fun (n, edges) ->
      let g = Graph.of_edges n edges in
      let clique = G.Clique.greedy g in
      List.for_all
        (fun u -> List.for_all (fun v -> u = v || Graph.mem_edge g u v) clique)
        clique)

let prop_dsatur_proper =
  QCheck2.Test.make ~count:300 ~name:"DSATUR colourings are proper"
    QCheck2.Gen.(
      let* n = int_range 1 15 in
      let* edges =
        list_repeat (3 * n) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
      in
      return (n, List.filter (fun (u, v) -> u <> v) edges))
    (fun (n, edges) ->
      let g = Graph.of_edges n edges in
      let c = G.Greedy.dsatur g in
      Coloring.is_proper g ~k:(max 1 (Coloring.num_colors c)) c)

(* DSATUR as first defined: every pick recomputed the saturation of every
   uncoloured vertex by sorting its neighbours' colours. [Greedy.dsatur]
   keeps saturations incrementally and must colour every graph the same. *)
let reference_dsatur g =
  let smallest_free used =
    let rec go c = if List.mem c used then go (c + 1) else c in
    go 0
  in
  let n = Graph.num_vertices g in
  let coloring = Array.make n (-1) in
  let adjacent_colors = Array.make n [] in
  let saturation v = List.length (List.sort_uniq compare adjacent_colors.(v)) in
  let pick () =
    let best = ref (-1) in
    for v = 0 to n - 1 do
      if coloring.(v) < 0 then
        if !best < 0 then best := v
        else
          let sv = saturation v and sb = saturation !best in
          if sv > sb || (sv = sb && Graph.degree g v > Graph.degree g !best) then
            best := v
    done;
    !best
  in
  let rec loop () =
    let v = pick () in
    if v >= 0 then begin
      let c = smallest_free (List.sort_uniq compare adjacent_colors.(v)) in
      coloring.(v) <- c;
      List.iter
        (fun w -> adjacent_colors.(w) <- c :: adjacent_colors.(w))
        (Graph.neighbors g v);
      loop ()
    end
  in
  loop ();
  coloring

(* Random graphs of every density, and the shapes where ties and large
   colours gather: empty, complete, stars, and a dense core with pendant
   vertices, whose neighbours' colours exceed their own degree. *)
let prop_dsatur_matches_reference =
  QCheck2.Test.make ~count:500 ~name:"DSATUR matches the reference colouring"
    QCheck2.Gen.(
      let* n = int_range 0 40 in
      let vertex = int_range 0 (max 0 (n - 1)) in
      let* shape = int_range 0 4 in
      let* edges = list_size (int_range 0 (n * n / 2)) (pair vertex vertex) in
      let* centre = vertex in
      let all_pairs =
        List.concat_map (fun u -> List.init u (fun v -> (u, v))) (List.init n Fun.id)
      in
      let edges =
        match shape with
        | 0 -> []
        | 1 -> all_pairs
        | 2 -> List.init n (fun v -> (centre, v)) @ edges
        | 3 ->
            (* a dense core on the low half, pendants on the high half *)
            List.filter (fun (u, v) -> 2 * u < n && 2 * v < n) all_pairs
            @ List.filter (fun (u, v) -> 2 * u >= n && 2 * v < n) edges
        | _ -> edges
      in
      return (n, List.filter (fun (u, v) -> u <> v) edges))
    (fun (n, edges) ->
      let g = Graph.of_edges n edges in
      G.Greedy.dsatur g = reference_dsatur g)

(* O(n + m) words: a star's centre has degree n - 1, so a table of one
   flag per vertex and colour up to the maximum degree would take n^2.
   Smaller stars first, so such a table fails before it grows large. *)
let test_dsatur_star_words () =
  List.iter
    (fun n ->
      let g = Graph.of_edges n (List.init (n - 1) (fun v -> (0, v + 1))) in
      let before = Gc.allocated_bytes () in
      let c = G.Greedy.dsatur g in
      let words = (Gc.allocated_bytes () -. before) /. 8. in
      let m = Graph.num_edges g in
      Alcotest.(check int) (Printf.sprintf "star of %d: colours" n) 2
        (Coloring.num_colors c);
      Alcotest.(check bool) (Printf.sprintf "star of %d: proper" n) true
        (Coloring.is_proper g ~k:2 c);
      if words > float_of_int (16 * (n + m)) then
        Alcotest.failf "star of %d: DSATUR allocated %.0f words, more than 16 (n + m)"
          n words)
    [ 1_001; 20_001; 200_001 ]

(* --- DIMACS .col --- *)

let test_col_roundtrip () =
  let g = Graph.of_edges 5 [ (0, 1); (1, 2); (3, 4) ] in
  let s = G.Dimacs_col.to_string ~comments:[ "test graph" ] g in
  let g' = G.Dimacs_col.parse_string s in
  Alcotest.(check int) "vertices" 5 (Graph.num_vertices g');
  Alcotest.(check int) "edges" 3 (Graph.num_edges g');
  Alcotest.(check bool) "edge 0-1" true (Graph.mem_edge g' 0 1);
  Alcotest.(check bool) "edge 3-4" true (Graph.mem_edge g' 3 4)

let expect_col_error s =
  match G.Dimacs_col.parse_string s with
  | exception G.Dimacs_col.Parse_error _ -> ()
  | _ -> Alcotest.fail ("should have failed: " ^ s)

let test_col_errors () =
  expect_col_error "e 1 2\n";
  expect_col_error "p edge 2 1\ne 1 3\n";
  expect_col_error "p edge 2 1\ne 1 1\n";
  expect_col_error "p edge 2 1\np edge 2 1\n";
  expect_col_error "p edge 2 1\nx 1 2\n";
  expect_col_error "";
  (* header sizes are untrusted: no allocation from an absurd count *)
  expect_col_error "p edge 100000000000 0\n";
  expect_col_error (Printf.sprintf "p edge %d 0\n" (G.Dimacs_col.max_vertices + 1))

let test_col_comments () =
  let g = G.Dimacs_col.parse_string "c hi\np edge 3 1\nc mid\ne 1 2\n" in
  Alcotest.(check int) "one edge" 1 (Graph.num_edges g)

let test_col_file_io () =
  let g = Graph.of_edges 4 [ (0, 3); (1, 2) ] in
  let path = Filename.temp_file "fpgasat" ".col" in
  G.Dimacs_col.write_file path g;
  let g' = G.Dimacs_col.parse_file path in
  Sys.remove path;
  Alcotest.(check int) "edges" 2 (Graph.num_edges g')

let prop_col_roundtrip =
  QCheck2.Test.make ~count:200 ~name:".col write/parse is identity"
    QCheck2.Gen.(
      let* n = int_range 1 10 in
      let* edges =
        list_repeat (2 * n) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
      in
      return (n, List.filter (fun (u, v) -> u <> v) edges))
    (fun (n, edges) ->
      let g = Graph.of_edges n edges in
      let g' = G.Dimacs_col.parse_string (G.Dimacs_col.to_string g) in
      Graph.num_vertices g = Graph.num_vertices g'
      && List.sort compare (Graph.edges g) = List.sort compare (Graph.edges g'))

let prop_of_edges_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"of_edges/edges roundtrip"
    QCheck2.Gen.(
      let* n = int_range 1 12 in
      let* edges =
        list_repeat (2 * n) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
      in
      return (n, List.filter (fun (u, v) -> u <> v) edges))
    (fun (n, edges) ->
      let g = Graph.of_edges n edges in
      let g' = Graph.of_edges n (Graph.edges g) in
      List.sort compare (Graph.edges g) = List.sort compare (Graph.edges g')
      && Graph.num_edges g = Graph.num_edges g')

let prop_degree_sum =
  QCheck2.Test.make ~count:300 ~name:"handshake: degree sum = 2m"
    QCheck2.Gen.(
      let* n = int_range 1 12 in
      let* edges =
        list_repeat (2 * n) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
      in
      return (n, List.filter (fun (u, v) -> u <> v) edges))
    (fun (n, edges) ->
      let g = Graph.of_edges n edges in
      let sum = List.fold_left (fun acc v -> acc + Graph.degree g v) 0 (List.init n Fun.id) in
      sum = 2 * Graph.num_edges g)

let test_density () =
  Alcotest.(check (float 1e-9)) "triangle" 1.0 (Graph.density triangle);
  Alcotest.(check (float 1e-9)) "single vertex" 0.0 (Graph.density (Graph.create 1))

(* --- exact coloring --- *)

let test_exact_triangle () =
  (match G.Exact_coloring.k_colorable triangle ~k:2 with
  | G.Exact_coloring.Uncolorable -> ()
  | G.Exact_coloring.Colorable _ -> Alcotest.fail "triangle 2-colourable?"
  | G.Exact_coloring.Exhausted -> Alcotest.fail "tiny search exhausted");
  match G.Exact_coloring.k_colorable triangle ~k:3 with
  | G.Exact_coloring.Colorable c ->
      Alcotest.(check bool) "proper" true (Coloring.is_proper triangle ~k:3 c)
  | G.Exact_coloring.Uncolorable | G.Exact_coloring.Exhausted ->
      Alcotest.fail "triangle is 3-colourable"

let test_exact_petersen_chromatic () =
  match G.Exact_coloring.chromatic_number petersen with
  | G.Exact_coloring.Exact 3 -> ()
  | G.Exact_coloring.Exact x -> Alcotest.fail (Printf.sprintf "chi(Petersen)=%d?" x)
  | G.Exact_coloring.Bounds _ -> Alcotest.fail "exhausted on Petersen"

let test_exact_budget () =
  (* a hostile budget must yield Exhausted, not a wrong answer *)
  let g = Graph.of_edges 8 (List.concat_map (fun i ->
      List.filter_map (fun j -> if j > i then Some (i, j) else None)
        (List.init 8 Fun.id)) (List.init 8 Fun.id)) in
  match G.Exact_coloring.k_colorable ~max_nodes:3 g ~k:7 with
  | G.Exact_coloring.Exhausted -> ()
  | G.Exact_coloring.Colorable _ | G.Exact_coloring.Uncolorable ->
      Alcotest.fail "3 nodes cannot decide K8 with 7 colours"

let brute_colorable g k =
  let n = Graph.num_vertices g in
  let coloring = Array.make (max n 1) 0 in
  let rec go v =
    if v = n then true
    else
      let ok c =
        List.for_all (fun w -> w > v || coloring.(w) <> c) (Graph.neighbors g v)
      in
      let rec try_c c =
        c < k && ((ok c && (coloring.(v) <- c; go (v + 1))) || try_c (c + 1))
      in
      try_c 0
  in
  n = 0 || go 0

let prop_exact_matches_brute_force =
  QCheck2.Test.make ~count:300 ~name:"branch and bound agrees with brute force"
    QCheck2.Gen.(
      let* n = int_range 1 8 in
      let* k = int_range 1 4 in
      let* edges =
        list_repeat (2 * n) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
      in
      return (n, k, List.filter (fun (u, v) -> u <> v) edges))
    (fun (n, k, edges) ->
      let g = Graph.of_edges n edges in
      match G.Exact_coloring.k_colorable g ~k with
      | G.Exact_coloring.Colorable c ->
          brute_colorable g k && Coloring.is_proper g ~k c
      | G.Exact_coloring.Uncolorable -> not (brute_colorable g k)
      | G.Exact_coloring.Exhausted -> false)

let prop_chromatic_between_bounds =
  QCheck2.Test.make ~count:200 ~name:"chromatic number within clique/DSATUR bounds"
    QCheck2.Gen.(
      let* n = int_range 1 10 in
      let* edges =
        list_repeat (2 * n) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
      in
      return (n, List.filter (fun (u, v) -> u <> v) edges))
    (fun (n, edges) ->
      let g = Graph.of_edges n edges in
      match G.Exact_coloring.chromatic_number g with
      | G.Exact_coloring.Exact chi ->
          G.Clique.lower_bound g <= chi && chi <= G.Greedy.upper_bound g
      | G.Exact_coloring.Bounds _ -> false)

(* --- maximum clique --- *)

let is_clique g vs =
  List.for_all
    (fun u -> List.for_all (fun v -> u = v || Graph.mem_edge g u v) vs)
    vs

let brute_clique_number g =
  let n = Graph.num_vertices g in
  let best = ref 0 in
  for mask = 0 to (1 lsl n) - 1 do
    let vs =
      List.filter (fun v -> mask land (1 lsl v) <> 0) (List.init n Fun.id)
    in
    if List.length vs > !best && is_clique g vs then best := List.length vs
  done;
  !best

let test_maximum_clique () =
  Alcotest.(check (list int)) "triangle" [ 0; 1; 2 ] (G.Clique.maximum triangle);
  Alcotest.(check int) "petersen" 2 (List.length (G.Clique.maximum petersen));
  Alcotest.(check (list int)) "empty graph" []
    (G.Clique.maximum (Graph.create 0));
  Alcotest.(check (list int)) "one vertex" [ 0 ]
    (G.Clique.maximum (Graph.create 1));
  (* a star's centre has the highest degree, so the greedy clique grows
     from it and stops at 2; the maximum is the K4 beside it *)
  let star_and_k4 =
    Graph.of_edges 10
      ([ (0, 1); (0, 2); (0, 3); (0, 4); (0, 5) ]
      @ [ (6, 7); (6, 8); (6, 9); (7, 8); (7, 9); (8, 9) ])
  in
  Alcotest.(check int) "greedy clique" 2 (G.Clique.lower_bound star_and_k4);
  Alcotest.(check (list int)) "maximum clique" [ 6; 7; 8; 9 ]
    (G.Clique.maximum star_and_k4)

let gen_graph ~max_n =
  QCheck2.Gen.(
    let* n = int_range 1 max_n in
    let* m = int_range 0 (n * n) in
    let* edges =
      list_repeat m (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
    in
    return (n, List.filter (fun (u, v) -> u <> v) edges))

let prop_maximum_is_clique =
  QCheck2.Test.make ~count:300
    ~name:"maximum clique: distinct, pairwise adjacent, never below greedy"
    (gen_graph ~max_n:40)
    (fun (n, edges) ->
      let g = Graph.of_edges n edges in
      let clique = G.Clique.maximum g in
      List.sort_uniq compare clique = clique
      && is_clique g clique
      && List.length clique >= G.Clique.lower_bound g)

let prop_maximum_matches_brute_force =
  QCheck2.Test.make ~count:300 ~name:"maximum clique = brute-force clique number"
    (gen_graph ~max_n:12)
    (fun (n, edges) ->
      let g = Graph.of_edges n edges in
      List.length (G.Clique.maximum g) = brute_clique_number g)

let prop_maximum_le_chromatic =
  QCheck2.Test.make ~count:200 ~name:"maximum clique <= chromatic number"
    (gen_graph ~max_n:10)
    (fun (n, edges) ->
      let g = Graph.of_edges n edges in
      match G.Exact_coloring.chromatic_number g with
      | G.Exact_coloring.Exact chi -> List.length (G.Clique.maximum g) <= chi
      | G.Exact_coloring.Bounds _ -> false)

(* --- DOT export --- *)

let test_dot_output () =
  let g = Graph.of_edges 3 [ (0, 1); (1, 2) ] in
  let dot = G.Dot.to_dot ~name:"test" ~coloring:[| 0; 1; 0 |] g in
  Alcotest.(check bool) "has graph header" true (contains dot "graph test {");
  Alcotest.(check bool) "has an edge" true (contains dot "0 -- 1;");
  Alcotest.(check bool) "has colour label" true (contains dot "label=\"1/1\"")

let qtests = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "graph"
    [
      ( "graph",
        [
          Alcotest.test_case "basics" `Quick test_graph_basics;
          Alcotest.test_case "self loop rejected" `Quick test_graph_self_loop_rejected;
          Alcotest.test_case "out of range" `Quick test_graph_out_of_range;
          Alcotest.test_case "iter edges once" `Quick test_graph_iter_edges_once;
          Alcotest.test_case "degree helpers" `Quick test_graph_degree_helpers;
          Alcotest.test_case "copy independent" `Quick test_graph_copy_independent;
        ] );
      ( "coloring",
        [
          Alcotest.test_case "check" `Quick test_coloring_check;
          Alcotest.test_case "length mismatch" `Quick test_coloring_length_mismatch;
          Alcotest.test_case "num colors" `Quick test_num_colors;
        ] );
      ( "greedy",
        Alcotest.test_case "proper colourings" `Quick test_greedy_proper
        :: Alcotest.test_case "dsatur exact on small" `Quick test_dsatur_triangle_exact
        :: Alcotest.test_case "clique bounds" `Quick test_clique_bounds
        :: Alcotest.test_case "dsatur on a star in O(n + m) words" `Quick
             test_dsatur_star_words
        :: qtests
             [
               prop_clique_le_dsatur;
               prop_clique_is_clique;
               prop_dsatur_proper;
               prop_dsatur_matches_reference;
             ]
      );
      ( "maximum-clique",
        Alcotest.test_case "small graphs" `Quick test_maximum_clique
        :: qtests
             [
               prop_maximum_is_clique; prop_maximum_matches_brute_force;
               prop_maximum_le_chromatic;
             ] );
      ( "dimacs-col",
        Alcotest.test_case "roundtrip" `Quick test_col_roundtrip
        :: Alcotest.test_case "errors" `Quick test_col_errors
        :: Alcotest.test_case "comments" `Quick test_col_comments
        :: Alcotest.test_case "file io" `Quick test_col_file_io
        :: qtests [ prop_col_roundtrip ] );
      ( "structure",
        Alcotest.test_case "density" `Quick test_density
        :: qtests [ prop_of_edges_roundtrip; prop_degree_sum ] );
      ( "exact-coloring",
        Alcotest.test_case "triangle" `Quick test_exact_triangle
        :: Alcotest.test_case "petersen chromatic" `Quick test_exact_petersen_chromatic
        :: Alcotest.test_case "budget" `Quick test_exact_budget
        :: qtests [ prop_exact_matches_brute_force; prop_chromatic_between_bounds ] );
      ("dot", [ Alcotest.test_case "output" `Quick test_dot_output ]);
    ]

(* Tests for the FPGA substrate: architecture geometry, netlists, global
   routing validity, congestion, the conflict-graph reduction, and
   detailed-routing verification. *)

module F = Fpgasat_fpga
module G = Fpgasat_graph
module Arch = F.Arch
module Netlist = F.Netlist

let arch4 = Arch.create 4

(* --- architecture --- *)

let test_arch_segment_count () =
  (* n=4: vertical (n+1)*n = 20, horizontal 20 *)
  Alcotest.(check int) "segments" 40 (Arch.num_segments arch4);
  Alcotest.(check int) "n=1" 4 (Arch.num_segments (Arch.create 1))

let test_arch_id_roundtrip () =
  List.iter
    (fun id ->
      let s = Arch.segment_of_id arch4 id in
      Alcotest.(check int) "id roundtrip" id (Arch.segment_id arch4 s))
    (List.init (Arch.num_segments arch4) Fun.id)

let test_arch_ids_distinct () =
  let ids =
    List.map (Arch.segment_id arch4) (Arch.all_segments arch4) |> List.sort_uniq compare
  in
  Alcotest.(check int) "all distinct" (Arch.num_segments arch4) (List.length ids)

let test_arch_bounds () =
  Alcotest.(check bool) "v in" true
    (Arch.in_bounds arch4 { Arch.dir = Arch.Vertical; sx = 4; sy = 3 });
  Alcotest.(check bool) "v out (sy)" false
    (Arch.in_bounds arch4 { Arch.dir = Arch.Vertical; sx = 0; sy = 4 });
  Alcotest.(check bool) "h in" true
    (Arch.in_bounds arch4 { Arch.dir = Arch.Horizontal; sx = 3; sy = 4 });
  Alcotest.(check bool) "h out (sx)" false
    (Arch.in_bounds arch4 { Arch.dir = Arch.Horizontal; sx = 4; sy = 0 });
  Alcotest.check_raises "segment_id oob"
    (Invalid_argument "Arch.segment_id: out of bounds") (fun () ->
      ignore (Arch.segment_id arch4 { Arch.dir = Arch.Vertical; sx = 9; sy = 0 }))

let test_arch_cell_segments () =
  let segs = Arch.cell_segments arch4 (1, 2) in
  Alcotest.(check int) "four connection blocks" 4 (List.length segs);
  Alcotest.(check bool) "left" true
    (List.mem { Arch.dir = Arch.Vertical; sx = 1; sy = 2 } segs);
  Alcotest.(check bool) "right" true
    (List.mem { Arch.dir = Arch.Vertical; sx = 2; sy = 2 } segs);
  Alcotest.(check bool) "bottom" true
    (List.mem { Arch.dir = Arch.Horizontal; sx = 1; sy = 2 } segs);
  Alcotest.(check bool) "top" true
    (List.mem { Arch.dir = Arch.Horizontal; sx = 1; sy = 3 } segs)

let test_arch_adjacency_symmetric () =
  List.iter
    (fun s ->
      List.iter
        (fun s' ->
          Alcotest.(check bool) "symmetric" true (Arch.segments_touch arch4 s' s))
        (Arch.adjacent_segments arch4 s))
    (Arch.all_segments arch4)

let test_arch_adjacency_interior_count () =
  (* an interior vertical segment touches 6 others: at each of its two
     switch blocks, the collinear continuation plus two crossing horizontal
     segments *)
  let s = { Arch.dir = Arch.Vertical; sx = 2; sy = 1 } in
  Alcotest.(check int) "interior degree" 6
    (List.length (Arch.adjacent_segments arch4 s))

(* --- netlist --- *)

let test_netlist_decomposition () =
  let nets =
    [
      { Netlist.net_id = 0; source = (0, 0); sinks = [ (1, 1); (2, 2) ] };
      { Netlist.net_id = 1; source = (3, 3); sinks = [ (0, 3) ] };
    ]
  in
  let nl = Netlist.make nets in
  Alcotest.(check int) "nets" 2 (Netlist.num_nets nl);
  Alcotest.(check int) "subnets (star)" 3 (Netlist.num_subnets nl);
  Alcotest.(check int) "subnets of net 0" 2
    (List.length (Netlist.subnets_of_net nl 0));
  List.iter
    (fun (s : Netlist.subnet) ->
      Alcotest.(check (pair int int)) "source kept" (0, 0) s.Netlist.from_cell)
    (Netlist.subnets_of_net nl 0)

let test_netlist_rejects_bad () =
  let bad_empty = [ { Netlist.net_id = 0; source = (0, 0); sinks = [] } ] in
  Alcotest.check_raises "no sinks"
    (Invalid_argument "Netlist.make: net without sinks") (fun () ->
      ignore (Netlist.make bad_empty));
  let bad_self =
    [ { Netlist.net_id = 0; source = (0, 0); sinks = [ (0, 0) ] } ]
  in
  Alcotest.check_raises "source as sink"
    (Invalid_argument "Netlist.make: source listed as sink") (fun () ->
      ignore (Netlist.make bad_self));
  let dup =
    [
      { Netlist.net_id = 0; source = (0, 0); sinks = [ (1, 1) ] };
      { Netlist.net_id = 0; source = (2, 2); sinks = [ (1, 1) ] };
    ]
  in
  Alcotest.check_raises "duplicate ids"
    (Invalid_argument "Netlist.make: duplicate net ids") (fun () ->
      ignore (Netlist.make dup))

let test_netlist_random_well_formed () =
  let rng = F.Rng.create 7 in
  let nl =
    Netlist.random ~rng ~arch:(Arch.create 6) ~num_nets:30 ~max_fanout:4
      ~locality:2
  in
  Alcotest.(check int) "requested nets" 30 (Netlist.num_nets nl);
  Array.iter
    (fun (s : Netlist.subnet) ->
      Alcotest.(check bool) "distinct endpoints" true
        (s.Netlist.from_cell <> s.Netlist.to_cell))
    nl.Netlist.subnets

let test_rng_deterministic () =
  let a = F.Rng.create 42 and b = F.Rng.create 42 in
  let xs = List.init 20 (fun _ -> F.Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> F.Rng.int b 1000) in
  Alcotest.(check (list int)) "same stream" xs ys;
  List.iter
    (fun x -> Alcotest.(check bool) "in range" true (x >= 0 && x < 1000))
    xs

let test_rng_shuffle_permutation () =
  let rng = F.Rng.create 5 in
  let arr = Array.init 50 Fun.id in
  F.Rng.shuffle rng arr;
  Alcotest.(check (list int)) "permutation" (List.init 50 Fun.id)
    (List.sort compare (Array.to_list arr))

(* --- global routing --- *)

let small_netlist =
  Netlist.make
    [
      { Netlist.net_id = 0; source = (0, 0); sinks = [ (3, 3) ] };
      { Netlist.net_id = 1; source = (0, 3); sinks = [ (3, 0) ] };
      { Netlist.net_id = 2; source = (1, 1); sinks = [ (2, 1); (1, 2) ] };
    ]

let test_router_produces_valid_routes () =
  (* Global_route.make validates connectivity and endpoints; make_exn inside
     the router raising would fail this test *)
  let gr = F.Global_router.route arch4 small_netlist in
  Alcotest.(check int) "all subnets routed" 4
    (Array.length gr.F.Global_route.paths);
  Array.iter
    (fun path -> Alcotest.(check bool) "non-empty" true (path <> []))
    gr.F.Global_route.paths

let test_router_deterministic () =
  let g1 = F.Global_router.route arch4 small_netlist in
  let g2 = F.Global_router.route arch4 small_netlist in
  Alcotest.(check bool) "same paths" true
    (g1.F.Global_route.paths = g2.F.Global_route.paths)

(* MD5 digests of [Serial.routes_to_string] as the router has produced
   them since the suite was calibrated: the eight bundled benchmarks, the
   largest generated size the end-to-end benchmark routes, and two small
   generated instances whose DSATUR bound exceeds their clique. Every
   conflict graph, CNF, cached answer and pinned proof is built on these
   routes, so a change to the router must leave them byte-identical. *)
let route_pins =
  [
    ("alu2", "0568a7f697a1852dc011df00e50ab77b");
    ("too_large", "bdf72ef5cc0ae9e28ecc2b6568da6aef");
    ("alu4", "6ae975f4bcb495c775b467335a6a2c69");
    ("C880", "ff26a4ed6df9985147c4c34387c75925");
    ("apex7", "1c6c93b752decfd9572b2572b8a6204e");
    ("C1355", "c61f95011701cacbf0625a96da8b1992");
    ("vda", "c3b478db917a2782602c8bd85b47e04f");
    ("k2", "7cfbb3f782da468b9f554a52a87c806e");
    ("gen:g24:n900:w5:f3:l2:s2008:sat", "c27c7154f20ef784d36cdfe698919928");
    ("gen:g5:n64:w7:f3:l2:s3:sat", "474261382c794919bd0c09a965ddf008");
    ("gen:g7:n128:w7:f3:l2:s1:sat", "f43d8afad5a0f273115c53d19ee19e5c");
  ]

let test_router_pinned_routes () =
  List.iter
    (fun (name, digest) ->
      let route =
        match (F.Benchmarks.find name, F.Generator.of_name name) with
        | Some spec, _ -> (F.Benchmarks.build spec).F.Benchmarks.route
        | None, Some (p, family) -> (F.Generator.build p family).F.Generator.route
        | None, None -> Alcotest.fail ("unknown instance " ^ name)
      in
      Alcotest.(check string) name digest
        (Digest.to_hex (Digest.string (F.Serial.routes_to_string route))))
    route_pins

(* A net's id only names it: renumbering the nets injectively, with one
   of them onto -1, must leave every path as it was. Small grids and
   capacities make segments overused, so congestion history is at play. *)
let prop_router_ignores_net_ids =
  QCheck2.Test.make ~count:60 ~name:"routes ignore how nets are numbered"
    QCheck2.Gen.(
      let* seed = int_range 0 10_000 in
      let* grid = int_range 3 7 in
      let* nets = int_range 2 40 in
      let* capacity = int_range 1 3 in
      let* perm = shuffle_l (List.init nets Fun.id) in
      let* onto_minus_one = int_range 0 (nets - 1) in
      let* scale = oneofl [ 1; -1; 3; -1000 ] in
      return (seed, grid, nets, capacity, perm, onto_minus_one, scale))
    (fun (seed, grid, nets, capacity, perm, j, scale) ->
      let arch = Arch.create grid in
      let nl =
        Netlist.random ~rng:(F.Rng.create seed) ~arch ~num_nets:nets
          ~max_fanout:3 ~locality:2
      in
      let perm = Array.of_list perm in
      let renumbered =
        Netlist.make
          (List.map
             (fun (n : Netlist.net) ->
               { n with Netlist.net_id = (scale * (perm.(n.net_id) - perm.(j))) - 1 })
             (Array.to_list nl.Netlist.nets))
      in
      let routes nl =
        F.Serial.routes_to_string
          (F.Global_router.route
             ~params:{ F.Global_router.default_params with capacity }
             arch nl)
      in
      routes nl = routes renumbered)

let test_global_route_validation () =
  let nl =
    Netlist.make [ { Netlist.net_id = 0; source = (0, 0); sinks = [ (3, 3) ] } ]
  in
  (* wrong endpoint: a segment near neither cell *)
  let bogus = [| [ { Arch.dir = Arch.Vertical; sx = 2; sy = 2 } ] |] in
  (match F.Global_route.make arch4 nl bogus with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus path accepted");
  (* disconnected path *)
  let disconnected =
    [|
      [
        { Arch.dir = Arch.Vertical; sx = 0; sy = 0 };
        { Arch.dir = Arch.Vertical; sx = 3; sy = 3 };
      ];
    |]
  in
  (match F.Global_route.make arch4 nl disconnected with
  | Error msg ->
      Alcotest.(check bool) "mentions disconnection" true
        (String.length msg > 0)
  | Ok _ -> Alcotest.fail "disconnected path accepted");
  (* wrong array length *)
  match F.Global_route.make arch4 nl [||] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "length mismatch accepted"

let test_wirelength_positive () =
  let gr = F.Global_router.route arch4 small_netlist in
  Alcotest.(check bool) "positive wirelength" true
    (F.Global_route.total_wirelength gr >= 4)

(* --- congestion --- *)

let test_congestion_basics () =
  let gr = F.Global_router.route arch4 small_netlist in
  let c = F.Congestion.of_route gr in
  let m = F.Congestion.max_congestion c in
  Alcotest.(check bool) "max >= 1" true (m >= 1);
  Alcotest.(check bool) "busiest nonempty" true (F.Congestion.busiest c <> []);
  List.iter
    (fun (seg, u) ->
      Alcotest.(check int) "busiest usage = max" m (F.Congestion.segment_usage c seg);
      Alcotest.(check int) "pair consistent" m u)
    (F.Congestion.busiest c);
  let hist_total = List.fold_left (fun acc (_, n) -> acc + n) 0 (F.Congestion.histogram c) in
  Alcotest.(check bool) "histogram covers used segments" true (hist_total >= 1)

let test_congestion_same_net_counts_once () =
  (* two subnets of one net through the same area: usage counts parents *)
  let nl =
    Netlist.make
      [ { Netlist.net_id = 0; source = (1, 1); sinks = [ (1, 3); (1, 2) ] } ]
  in
  let gr = F.Global_router.route arch4 nl in
  let c = F.Congestion.of_route gr in
  Alcotest.(check int) "single net never congests" 1 (F.Congestion.max_congestion c)

(* --- conflict graph --- *)

let test_conflict_graph_no_same_net_edges () =
  let gr = F.Global_router.route arch4 small_netlist in
  let g = F.Conflict_graph.build gr in
  let parent i = gr.F.Global_route.netlist.Netlist.subnets.(i).Netlist.parent in
  G.Graph.iter_edges
    (fun u v ->
      Alcotest.(check bool) "different parents" true (parent u <> parent v))
    g;
  Alcotest.(check int) "one vertex per subnet"
    (Netlist.num_subnets small_netlist)
    (G.Graph.num_vertices g)

let test_conflict_graph_edges_share_segment () =
  let gr = F.Global_router.route arch4 small_netlist in
  let g = F.Conflict_graph.build gr in
  G.Graph.iter_edges
    (fun u v ->
      let su = F.Global_route.segments_used gr u in
      let sv = F.Global_route.segments_used gr v in
      Alcotest.(check bool) "share a segment" true
        (List.exists (fun s -> List.mem s sv) su))
    g

let test_conflict_graph_clique_at_congestion () =
  (* the subnets on the busiest segment, one per distinct net, must form a
     clique in the conflict graph — the structural reason max congestion
     lower-bounds the channel width *)
  let spec = List.hd F.Benchmarks.specs in
  let inst = F.Benchmarks.build spec in
  let gr = inst.F.Benchmarks.route in
  let c = F.Congestion.of_route gr in
  let seg, usage =
    match F.Congestion.busiest c with
    | hd :: _ -> hd
    | [] -> Alcotest.fail "no busy segment"
  in
  let sid = Arch.segment_id inst.F.Benchmarks.arch seg in
  let parent i = gr.F.Global_route.netlist.Netlist.subnets.(i).Netlist.parent in
  let on_seg =
    List.filter
      (fun i -> List.mem sid (F.Global_route.segments_used gr i))
      (List.init (Netlist.num_subnets gr.F.Global_route.netlist) Fun.id)
  in
  (* one representative subnet per parent net *)
  let reps =
    List.sort_uniq compare (List.map parent on_seg)
    |> List.map (fun p -> List.find (fun i -> parent i = p) on_seg)
  in
  Alcotest.(check int) "one rep per congesting net" usage (List.length reps);
  List.iter
    (fun u ->
      List.iter
        (fun v ->
          if u <> v then
            Alcotest.(check bool) "clique edge" true
              (G.Graph.mem_edge inst.F.Benchmarks.graph u v))
        reps)
    reps

(* --- detailed routing --- *)

let test_detailed_route_verify () =
  let gr = F.Global_router.route arch4 small_netlist in
  let g = F.Conflict_graph.build gr in
  let k = G.Greedy.upper_bound g in
  let coloring = G.Greedy.dsatur g in
  (match F.Detailed_route.of_coloring gr ~width:k coloring with
  | Ok d ->
      Array.iteri
        (fun id _ ->
          let t = F.Detailed_route.track d id in
          Alcotest.(check bool) "track in range" true (t >= 0 && t < k))
        gr.F.Global_route.paths;
      Alcotest.(check bool) "occupancy nonempty" true
        (F.Detailed_route.channel_occupancy d <> [])
  | Error v ->
      Alcotest.fail
        (Format.asprintf "proper colouring rejected: %a" F.Detailed_route.pp_violation v));
  (* a uniform track assignment must be rejected when there are conflicts *)
  let all_zero = Array.make (Netlist.num_subnets small_netlist) 0 in
  if G.Graph.num_edges g > 0 then
    match F.Detailed_route.verify gr ~width:k all_zero with
    | Error (F.Detailed_route.Segment_conflict _) -> ()
    | Error (F.Detailed_route.Track_out_of_range _) -> Alcotest.fail "wrong violation"
    | Ok () -> Alcotest.fail "conflicting assignment accepted"

let test_detailed_route_track_range () =
  let gr = F.Global_router.route arch4 small_netlist in
  let n = Netlist.num_subnets small_netlist in
  let bad = Array.make n 5 in
  match F.Detailed_route.verify gr ~width:3 bad with
  | Error (F.Detailed_route.Track_out_of_range _) -> ()
  | Error (F.Detailed_route.Segment_conflict _) | Ok () ->
      Alcotest.fail "out-of-range track accepted"

(* --- clique refutations --- *)

let test_clique_refutes_benchmarks () =
  List.iter
    (fun spec ->
      let inst = F.Benchmarks.build spec in
      let gr = inst.F.Benchmarks.route in
      let clique = Array.of_list (G.Clique.maximum inst.F.Benchmarks.graph) in
      let omega = Array.length clique in
      for width = 0 to omega - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "%s: clique refutes W=%d" spec.F.Benchmarks.name width)
          true
          (F.Detailed_route.clique_refutes gr ~width clique)
      done;
      Alcotest.(check bool)
        (Printf.sprintf "%s: not W=%d" spec.F.Benchmarks.name omega)
        false
        (F.Detailed_route.clique_refutes gr ~width:omega clique))
    F.Benchmarks.specs

let alu2 = F.Benchmarks.build (Option.get (F.Benchmarks.find "alu2"))

let test_clique_refutes_rejects () =
  let gr = alu2.F.Benchmarks.route in
  let refutes ~width subnets =
    F.Detailed_route.clique_refutes gr ~width subnets
  in
  let n = Netlist.num_subnets gr.F.Global_route.netlist in
  let parent i = gr.F.Global_route.netlist.Netlist.subnets.(i).Netlist.parent in
  let share a b =
    let sb = F.Global_route.segments_used gr b in
    List.exists (fun s -> List.mem s sb) (F.Global_route.segments_used gr a)
  in
  (* the first pair of subnets with property [p] *)
  let find_pair what p =
    let rec go a b =
      if a >= n then Alcotest.fail ("alu2 has no " ^ what)
      else if b >= n then go (a + 1) (a + 2)
      else if p a b then [| a; b |]
      else go a (b + 1)
    in
    go 0 1
  in
  let conflicting =
    find_pair "conflicting pair" (fun a b -> parent a <> parent b && share a b)
  in
  Alcotest.(check bool) "a conflicting pair refutes one track" true
    (refutes ~width:1 conflicting);
  Alcotest.(check bool) "but not two" false (refutes ~width:2 conflicting);
  Alcotest.(check bool) "same net, shared segment" false
    (refutes ~width:1
       (find_pair "same-net pair sharing a segment" (fun a b ->
            parent a = parent b && share a b)));
  Alcotest.(check bool) "different nets, no shared segment" false
    (refutes ~width:1
       (find_pair "disjoint pair" (fun a b ->
            parent a <> parent b && not (share a b))));
  let clique = Array.of_list (G.Clique.maximum alu2.F.Benchmarks.graph) in
  let omega = Array.length clique in
  Alcotest.(check bool) "the clique itself" true
    (refutes ~width:(omega - 1) clique);
  Alcotest.(check bool) "a repeated id" false
    (refutes ~width:omega (Array.append clique [| clique.(0) |]));
  List.iter
    (fun bad ->
      let subnets = Array.copy clique in
      subnets.(0) <- bad;
      Alcotest.(check bool) (Printf.sprintf "out-of-range id %d" bad) false
        (refutes ~width:(omega - 1) subnets))
    [ -1; n; max_int; min_int ];
  Alcotest.(check bool) "the empty set" false (refutes ~width:(-1) [||])

let prop_clique_refutes_never_raises =
  let n = Netlist.num_subnets alu2.F.Benchmarks.route.F.Global_route.netlist in
  QCheck2.Test.make ~count:500 ~name:"clique_refutes returns on any int array"
    QCheck2.Gen.(
      pair (int_range (-3) 12)
        (array_size (int_range 0 12)
           (oneof [ int_range (-2) (n + 2); int; return 0 ])))
    (fun (width, subnets) ->
      ignore
        (F.Detailed_route.clique_refutes alu2.F.Benchmarks.route ~width
           subnets);
      true)

(* --- serialisation --- *)

let test_netlist_serialisation_roundtrip () =
  let arch, nl = (arch4, small_netlist) in
  let text = F.Serial.netlist_to_string arch nl in
  let arch', nl' = F.Serial.netlist_of_string text in
  Alcotest.(check int) "arch size" (Arch.size arch) (Arch.size arch');
  Alcotest.(check int) "nets" (Netlist.num_nets nl) (Netlist.num_nets nl');
  Alcotest.(check int) "subnets" (Netlist.num_subnets nl) (Netlist.num_subnets nl');
  Array.iteri
    (fun i (s : Netlist.subnet) ->
      let s' = nl'.Netlist.subnets.(i) in
      Alcotest.(check bool) "same subnet" true
        (s.Netlist.from_cell = s'.Netlist.from_cell
        && s.Netlist.to_cell = s'.Netlist.to_cell
        && s.Netlist.parent = s'.Netlist.parent))
    nl.Netlist.subnets

let test_routes_serialisation_roundtrip () =
  let gr = F.Global_router.route arch4 small_netlist in
  let text = F.Serial.routes_to_string gr in
  let gr' = F.Serial.routes_of_string ~netlist:small_netlist text in
  Alcotest.(check bool) "same paths" true
    (gr.F.Global_route.paths = gr'.F.Global_route.paths)

(* [line] also checks that the message names the offending line. *)
let expect_serial_error ?line f =
  match f () with
  | exception F.Serial.Parse_error m -> (
      match line with
      | None -> ()
      | Some n ->
          Alcotest.(check bool)
            (Printf.sprintf "%S names line %d" m n)
            true
            (String.starts_with ~prefix:(Printf.sprintf "line %d: " n) m))
  | _ -> Alcotest.fail "malformed input accepted"

let test_serialisation_errors () =
  expect_serial_error (fun () -> F.Serial.netlist_of_string "");
  expect_serial_error (fun () -> F.Serial.netlist_of_string "fpga 0\n");
  expect_serial_error (fun () -> F.Serial.netlist_of_string "fpga 4\nnet x (0,0) -> (1,1)");
  expect_serial_error (fun () -> F.Serial.netlist_of_string "fpga 4\nnet 0 (0,0) ->");
  expect_serial_error (fun () -> F.Serial.netlist_of_string "fpga 2\nnet 0 (0,0) -> (5,5)");
  expect_serial_error ~line:3 (fun () ->
      F.Serial.netlist_of_string
        "fpga 4\nnet 0 (0,0) -> (1,1)\nnet 0 (2,2) -> (3,3)");
  expect_serial_error ~line:2 (fun () ->
      F.Serial.netlist_of_string "fpga 4\nnet 0 (1,1) -> (2,2) (1,1)");
  let oversized = Printf.sprintf "fpga %d\n" (F.Serial.max_size + 1) in
  expect_serial_error ~line:1 (fun () -> F.Serial.netlist_of_string oversized);
  expect_serial_error ~line:1 (fun () ->
      F.Serial.routes_of_string ~netlist:small_netlist oversized);
  let arch, _ =
    F.Serial.netlist_of_string
      (Printf.sprintf "fpga %d\nnet 0 (0,0) -> (1,1)" F.Serial.max_size)
  in
  Alcotest.(check int) "largest grid kept" F.Serial.max_size (Arch.size arch);
  expect_serial_error (fun () ->
      F.Serial.routes_of_string ~netlist:small_netlist "fpga 4\nsubnet 0 : Q(1,1)");
  expect_serial_error (fun () ->
      (* missing subnets *)
      F.Serial.routes_of_string ~netlist:small_netlist "fpga 4\nsubnet 0 : V(0,0)");
  expect_serial_error (fun () ->
      (* a grid smaller than the netlist's: every segment is in bounds, but
         the subnets' cells are not *)
      F.Serial.routes_of_string ~netlist:small_netlist
        (String.concat ""
           ("fpga 1\n"
           :: List.init (Netlist.num_subnets small_netlist) (fun i ->
                  Printf.sprintf "subnet %d : V(0,0)\n" i))))

(* route-file reads both files from the user: a bad one is reported with its
   name and cmdliner's error status (124), never as an uncaught exception
   (125). The same holds for a width or colour count below 1, a +defs
   encoding name and an unknown colouring method. *)
let test_route_file_cli_errors () =
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/fpgasat.exe"
  in
  let files = ref [] in
  let temp suffix =
    let path = Filename.temp_file "fpgasat" suffix in
    files := path :: !files;
    path
  in
  let write suffix text =
    let path = temp suffix in
    Out_channel.with_open_text path (fun oc -> output_string oc text);
    path
  in
  let run_cli args =
    let err = temp ".err" in
    let fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let pid =
      Unix.create_process exe
        (Array.of_list ("fpgasat" :: args))
        Unix.stdin null fd
    in
    Unix.close fd;
    Unix.close null;
    let _, status = Unix.waitpid [] pid in
    (status, String.trim (In_channel.with_open_text err In_channel.input_all))
  in
  let run args = run_cli ("route-file" :: "-w" :: "2" :: args) in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove !files)
    (fun () ->
      let good = write ".nets" "fpga 4\nnet 0 (1,1) -> (2,2)\n" in
      let duplicate =
        write ".nets" "fpga 4\nnet 0 (1,1) -> (2,2)\nnet 0 (0,0) -> (3,3)\n"
      in
      let source_sink = write ".nets" "fpga 4\nnet 0 (1,1) -> (1,1)\n" in
      let routes = write ".routes" "garbage\n" in
      List.iter
        (fun (args, file, reason) ->
          let status, message = run args in
          Alcotest.(check bool)
            (Printf.sprintf "exit 124 (stderr: %s)" message)
            true
            (status = Unix.WEXITED 124);
          Alcotest.(check string) "message"
            (Printf.sprintf "fpgasat: %s: %s" file reason)
            message)
        [
          ([ "--nets"; duplicate ], duplicate, "line 3: duplicate net id 0");
          ( [ "--nets"; source_sink ],
            source_sink,
            "line 2: net 0 lists its source as a sink" );
          ( [ "--nets"; good; "--routes"; routes ],
            routes,
            "line 1: expected 'fpga <n>' header" );
        ];
      let col = write ".col" "p edge 3 2\ne 1 2\ne 2 3\n" in
      List.iter
        (fun (args, reason) ->
          let status, message = run_cli args in
          let first_line = List.hd (String.split_on_char '\n' message) in
          Alcotest.(check bool)
            (Printf.sprintf "%s: exit 124 (stderr: %s)" (String.concat " " args)
               first_line)
            true
            (status = Unix.WEXITED 124);
          Alcotest.(check string) "message" reason first_line)
        [
          ( [ "route"; "alu2"; "-w"; "0" ],
            "fpgasat: option '-w': 0 is not positive" );
          ( [ "encode"; "alu2"; "-w"; "0"; "-e"; "log" ],
            "fpgasat: option '-w': 0 is not positive" );
          ( [ "portfolio"; "alu2"; "-w"; "0" ],
            "fpgasat: option '-w': 0 is not positive" );
          ( [ "route-file"; "--nets"; good; "-w"; "0" ],
            "fpgasat: option '-w': 0 is not positive" );
          ( [ "color"; col; "-k"; "0" ],
            "fpgasat: option '-k': 0 is not positive" );
          ( [ "color"; col; "-k"; "0"; "--method"; "exact" ],
            "fpgasat: option '-k': 0 is not positive" );
          ( [ "route"; "alu2"; "-w"; "5"; "-s"; "ITE-linear-2+muldirect+defs/s1" ],
            "fpgasat: option '-s': unknown multi-level encoding" );
          ( [ "color"; col; "-k"; "3"; "--method"; "bdd" ],
            "fpgasat: option '--method': invalid value 'bdd', expected either \
             'sat' or" );
        ];
      let status, _ = run [ "--nets"; good ] in
      Alcotest.(check bool) "a good netlist routes" true (status = Unix.WEXITED 0))

let test_serialisation_files () =
  let gr = F.Global_router.route arch4 small_netlist in
  let nets_file = Filename.temp_file "fpgasat" ".nets" in
  let routes_file = Filename.temp_file "fpgasat" ".routes" in
  F.Serial.write_netlist nets_file arch4 small_netlist;
  F.Serial.write_routes routes_file gr;
  let _, nl' = F.Serial.read_netlist nets_file in
  let gr' = F.Serial.read_routes ~netlist:nl' routes_file in
  Sys.remove nets_file;
  Sys.remove routes_file;
  Alcotest.(check int) "roundtrip wirelength"
    (F.Global_route.total_wirelength gr)
    (F.Global_route.total_wirelength gr')

(* --- rendering --- *)

let test_render_congestion_map () =
  let gr = F.Global_router.route arch4 small_netlist in
  let s = F.Render.congestion_map gr in
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  (* n rows of cells + n+1 channel rows + 1 axis row *)
  Alcotest.(check int) "line count" (4 + 5 + 1) (List.length lines);
  Alcotest.(check bool) "mentions a cell" true
    (List.exists (fun l ->
         let rec has i = i + 3 <= String.length l && (String.sub l i 3 = "[ ]" || has (i+1)) in
         has 0) lines)

let test_render_subnet_path () =
  let gr = F.Global_router.route arch4 small_netlist in
  let s = F.Render.subnet_path gr 0 in
  let rec contains i needle =
    i + String.length needle <= String.length s
    && (String.sub s i (String.length needle) = needle || contains (i + 1) needle)
  in
  Alcotest.(check bool) "marks the path" true (contains 0 "#");
  Alcotest.(check bool) "header mentions subnet" true (contains 0 "subnet 0")

let prop_histogram_covers_used_segments =
  QCheck2.Test.make ~count:50 ~name:"congestion histogram counts used segments"
    QCheck2.Gen.(
      let* seed = int_range 0 5_000 in
      let* n = int_range 2 6 in
      let* nets = int_range 1 10 in
      return (seed, n, nets))
    (fun (seed, n, nets) ->
      let arch = Arch.create n in
      let rng = F.Rng.create seed in
      let nl = Netlist.random ~rng ~arch ~num_nets:nets ~max_fanout:3 ~locality:2 in
      let gr = F.Global_router.route arch nl in
      let c = F.Congestion.of_route gr in
      let hist_total =
        List.fold_left (fun acc (_, count) -> acc + count) 0 (F.Congestion.histogram c)
      in
      let used =
        List.length
          (List.filter
             (fun seg -> F.Congestion.segment_usage c seg > 0)
             (Arch.all_segments arch))
      in
      hist_total = used)

let prop_render_never_crashes =
  QCheck2.Test.make ~count:30 ~name:"rendering is total"
    QCheck2.Gen.(
      let* seed = int_range 0 5_000 in
      let* n = int_range 2 6 in
      return (seed, n))
    (fun (seed, n) ->
      let arch = Arch.create n in
      let rng = F.Rng.create seed in
      let nl = Netlist.random ~rng ~arch ~num_nets:5 ~max_fanout:2 ~locality:2 in
      let gr = F.Global_router.route arch nl in
      String.length (F.Render.congestion_map gr) > 0
      && List.for_all
           (fun id -> String.length (F.Render.subnet_path gr id) > 0)
           (List.init (Netlist.num_subnets nl) Fun.id))

let prop_serial_roundtrip_random =
  QCheck2.Test.make ~count:50 ~name:"serialisation roundtrips random designs"
    QCheck2.Gen.(
      let* seed = int_range 0 5_000 in
      let* n = int_range 2 6 in
      let* nets = int_range 1 8 in
      return (seed, n, nets))
    (fun (seed, n, nets) ->
      let arch = Arch.create n in
      let rng = F.Rng.create seed in
      let nl = Netlist.random ~rng ~arch ~num_nets:nets ~max_fanout:3 ~locality:2 in
      let gr = F.Global_router.route arch nl in
      let _, nl' = F.Serial.netlist_of_string (F.Serial.netlist_to_string arch nl) in
      let gr' = F.Serial.routes_of_string ~netlist:nl' (F.Serial.routes_to_string gr) in
      gr.F.Global_route.paths = gr'.F.Global_route.paths)

(* --- benchmarks --- *)

let test_benchmark_suite_shape () =
  Alcotest.(check int) "eight benchmarks" 8 (List.length F.Benchmarks.specs);
  Alcotest.(check (list string)) "paper order"
    [ "alu2"; "too_large"; "alu4"; "C880"; "apex7"; "C1355"; "vda"; "k2" ]
    F.Benchmarks.names;
  Alcotest.(check bool) "find case-insensitive" true
    (F.Benchmarks.find "ALU2" <> None);
  Alcotest.(check bool) "find missing" true (F.Benchmarks.find "nope" = None)

let test_benchmark_build_deterministic () =
  let spec = List.hd F.Benchmarks.specs in
  let a = F.Benchmarks.build spec and b = F.Benchmarks.build spec in
  Alcotest.(check int) "same edges"
    (G.Graph.num_edges a.F.Benchmarks.graph)
    (G.Graph.num_edges b.F.Benchmarks.graph);
  Alcotest.(check (list (pair int int))) "identical conflict graph"
    (G.Graph.edges a.F.Benchmarks.graph)
    (G.Graph.edges b.F.Benchmarks.graph)

let test_benchmark_fingerprints () =
  (* the calibrated suite is part of the reproduction: pin each instance's
     conflict-graph shape so parameter drift is caught immediately
     (expected values recorded from the calibration run; see DESIGN.md) *)
  let expected =
    [
      ("alu2", 138, 552, 6);
      ("too_large", 150, 609, 6);
      ("alu4", 365, 2296, 8);
      ("C880", 383, 2556, 9);
      ("apex7", 269, 1953, 8);
      ("C1355", 301, 1785, 8);
      ("vda", 496, 3457, 9);
      ("k2", 443, 3106, 9);
    ]
  in
  List.iter
    (fun (name, vertices, edges, congestion) ->
      let inst = F.Benchmarks.build (Option.get (F.Benchmarks.find name)) in
      Alcotest.(check int) (name ^ " vertices") vertices
        (G.Graph.num_vertices inst.F.Benchmarks.graph);
      Alcotest.(check int) (name ^ " edges") edges
        (G.Graph.num_edges inst.F.Benchmarks.graph);
      Alcotest.(check int) (name ^ " congestion") congestion
        inst.F.Benchmarks.max_congestion)
    expected

let prop_random_routes_valid =
  QCheck2.Test.make ~count:25 ~name:"random netlists route validly"
    QCheck2.Gen.(
      let* seed = int_range 0 10_000 in
      let* n = int_range 2 6 in
      let* nets = int_range 1 12 in
      return (seed, n, nets))
    (fun (seed, n, nets) ->
      let arch = Arch.create n in
      let rng = F.Rng.create seed in
      let nl =
        Netlist.random ~rng ~arch ~num_nets:nets ~max_fanout:3 ~locality:2
      in
      (* Global_route.make inside the router validates; also check the
         conflict graph is consistent *)
      let gr = F.Global_router.route arch nl in
      let g = F.Conflict_graph.build gr in
      G.Graph.num_vertices g = Netlist.num_subnets nl)

(* --- readers of outside bytes --- *)

(* The CLI reads netlists, routings, DIMACS CNF and graphs, and DRAT proofs
   from users' files. On any input each reader returns a value or raises its
   own [Parse_error], nothing else ({!Outside_bytes}). *)

let readers =
  let small_routes =
    F.Serial.routes_to_string (F.Global_router.route arch4 small_netlist)
  in
  let module Sat = Fpgasat_sat in
  [
    ( "Dimacs_cnf.parse_string",
      (fun s ->
        try ignore (Sat.Dimacs_cnf.parse_string s)
        with Sat.Dimacs_cnf.Parse_error _ -> ()),
      [ "p"; "cnf"; "p cnf 3 2"; "c"; "1"; "3"; "-4"; "4194304"; "4194305"; "x";
        "+2"; " "; "\t"; "\n"; "\r" ],
      "p cnf 3 4\n1 -2 0\n2 3 0\n-1 -3 0\n3 0\n" );
    ( "Dimacs_col.parse_string",
      (fun s ->
        try ignore (G.Dimacs_col.parse_string s)
        with G.Dimacs_col.Parse_error _ -> ()),
      (* not 2^22 itself: that header is accepted and sizes the graph *)
      [ "p"; "edge"; "edges"; "p edge 4 2"; "e"; "c"; "1"; "2"; "4"; "4194305";
        "x"; " "; "\t"; "\n" ],
      "p edge 4 3\ne 1 2\ne 2 3\ne 3 4\n" );
    ( "Proof.parse",
      (fun s ->
        let path = Filename.temp_file "fpgasat" ".drat" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Out_channel.with_open_bin path (fun oc -> output_string oc s);
            try ignore (In_channel.with_open_bin path Sat.Proof.parse)
            with Sat.Proof.Parse_error _ -> ())),
      [ "d"; "c"; "1"; "-2"; "3"; "4194304"; "4194305"; "-4194305"; "x"; " ";
        "\t"; "\n"; "\r" ],
      "1 2 0\nd 1 2 0\n-3 0\n0\n" );
    ( "Serial.netlist_of_string",
      (fun s ->
        try ignore (F.Serial.netlist_of_string s)
        with F.Serial.Parse_error _ -> ()),
      [ "fpga"; "net"; "->"; "(0,0)"; "(1,2)"; "(3,3)"; "(9,9)"; "(-1,0)";
        "(1,"; ")"; "1"; "4"; "64"; "65"; "#"; " "; "\n" ],
      F.Serial.netlist_to_string arch4 small_netlist );
    ( "Serial.routes_of_string",
      (fun s ->
        try ignore (F.Serial.routes_of_string ~netlist:small_netlist s)
        with F.Serial.Parse_error _ -> ()),
      [ "fpga"; "subnet"; ":"; "1"; "2"; "3"; "4"; "65"; "V(0,0)"; "H(1,2)";
        "V(4,3)"; "H(-1,0)"; "V("; "Q(1,1)"; "V"; "#"; " "; "\n" ],
      small_routes );
  ]

let readers_never_raise = List.concat_map Outside_bytes.never_raises readers

let qtests = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "fpga"
    [
      ( "arch",
        [
          Alcotest.test_case "segment count" `Quick test_arch_segment_count;
          Alcotest.test_case "id roundtrip" `Quick test_arch_id_roundtrip;
          Alcotest.test_case "ids distinct" `Quick test_arch_ids_distinct;
          Alcotest.test_case "bounds" `Quick test_arch_bounds;
          Alcotest.test_case "cell segments" `Quick test_arch_cell_segments;
          Alcotest.test_case "adjacency symmetric" `Quick test_arch_adjacency_symmetric;
          Alcotest.test_case "interior adjacency count" `Quick
            test_arch_adjacency_interior_count;
        ] );
      ( "netlist",
        [
          Alcotest.test_case "decomposition" `Quick test_netlist_decomposition;
          Alcotest.test_case "rejects bad nets" `Quick test_netlist_rejects_bad;
          Alcotest.test_case "random well-formed" `Quick test_netlist_random_well_formed;
          Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "rng shuffle" `Quick test_rng_shuffle_permutation;
        ] );
      ( "routing",
        [
          Alcotest.test_case "valid routes" `Quick test_router_produces_valid_routes;
          Alcotest.test_case "deterministic" `Quick test_router_deterministic;
          Alcotest.test_case "pinned routes" `Quick test_router_pinned_routes;
          Alcotest.test_case "validation" `Quick test_global_route_validation;
          Alcotest.test_case "wirelength" `Quick test_wirelength_positive;
        ]
        @ qtests [ prop_router_ignores_net_ids ] );
      ( "congestion",
        [
          Alcotest.test_case "basics" `Quick test_congestion_basics;
          Alcotest.test_case "same net counts once" `Quick
            test_congestion_same_net_counts_once;
        ] );
      ( "conflict-graph",
        [
          Alcotest.test_case "no same-net edges" `Quick
            test_conflict_graph_no_same_net_edges;
          Alcotest.test_case "edges share a segment" `Quick
            test_conflict_graph_edges_share_segment;
          Alcotest.test_case "clique at congestion" `Quick
            test_conflict_graph_clique_at_congestion;
        ] );
      ( "detailed-route",
        [
          Alcotest.test_case "verify" `Quick test_detailed_route_verify;
          Alcotest.test_case "track range" `Quick test_detailed_route_track_range;
          Alcotest.test_case "benchmark cliques refute" `Quick
            test_clique_refutes_benchmarks;
          Alcotest.test_case "clique check rejects" `Quick
            test_clique_refutes_rejects;
        ]
        @ qtests [ prop_clique_refutes_never_raises ] );
      ( "properties",
        qtests
          [
            prop_histogram_covers_used_segments; prop_render_never_crashes;
            prop_serial_roundtrip_random;
          ] );
      ( "serial",
        [
          Alcotest.test_case "netlist roundtrip" `Quick
            test_netlist_serialisation_roundtrip;
          Alcotest.test_case "routes roundtrip" `Quick
            test_routes_serialisation_roundtrip;
          Alcotest.test_case "errors" `Quick test_serialisation_errors;
          Alcotest.test_case "file io" `Quick test_serialisation_files;
          Alcotest.test_case "route-file refuses bad files" `Quick
            test_route_file_cli_errors;
        ] );
      ("outside bytes", Outside_bytes.seeded_qtests readers_never_raise);
      ( "render",
        [
          Alcotest.test_case "congestion map" `Quick test_render_congestion_map;
          Alcotest.test_case "subnet path" `Quick test_render_subnet_path;
        ] );
      ( "benchmarks",
        Alcotest.test_case "suite shape" `Quick test_benchmark_suite_shape
        :: Alcotest.test_case "deterministic" `Quick test_benchmark_build_deterministic
        :: Alcotest.test_case "fingerprints" `Quick test_benchmark_fingerprints
        :: qtests [ prop_random_routes_valid ] );
    ]

module G = Fpgasat_graph

type answer =
  | Colorable of G.Coloring.t
  | Uncolorable
  | Node_limit

(* direct encoding: variable v*k + c means "vertex v has colour c";
   vertex-major order keeps related variables adjacent, which is the
   standard (and still insufficient, which is the point) mitigation *)
let build m graph ~k =
  let xvar v c = Bdd.var m ((v * k) + c) in
  let n = G.Graph.num_vertices graph in
  let exactly_one v =
    let at_least =
      List.fold_left (fun acc c -> Bdd.bdd_or m acc (xvar v c)) (Bdd.zero m)
        (List.init k Fun.id)
    in
    let at_most = ref (Bdd.one m) in
    for c1 = 0 to k - 1 do
      for c2 = c1 + 1 to k - 1 do
        let not_both =
          Bdd.bdd_not m (Bdd.bdd_and m (xvar v c1) (xvar v c2))
        in
        at_most := Bdd.bdd_and m !at_most not_both
      done
    done;
    Bdd.bdd_and m at_least !at_most
  in
  let acc = ref (Bdd.one m) in
  for v = 0 to n - 1 do
    acc := Bdd.bdd_and m !acc (exactly_one v)
  done;
  G.Graph.iter_edges
    (fun u v ->
      for c = 0 to k - 1 do
        let conflict = Bdd.bdd_not m (Bdd.bdd_and m (xvar u c) (xvar v c)) in
        acc := Bdd.bdd_and m !acc conflict
      done)
    graph;
  !acc

let with_manager ?max_nodes graph ~k f =
  if k < 1 then invalid_arg "Coloring_bdd: k < 1";
  let m = Bdd.manager ?max_nodes () in
  match
    let bdd = build m graph ~k in
    f m bdd
  with
  | result -> Some result
  | exception Bdd.Node_limit_exceeded -> None

let k_colorable ?max_nodes graph ~k =
  let n = G.Graph.num_vertices graph in
  let extract m bdd =
    if Bdd.is_zero bdd then Uncolorable
    else begin
      (* peel one colour per vertex by conjoining its variable *)
      let current = ref bdd in
      let coloring = Array.make n (-1) in
      for v = 0 to n - 1 do
        let rec pick c =
          if c >= k then failwith "Coloring_bdd: no colour selectable"
          else
            let restricted = Bdd.bdd_and m !current (Bdd.var m ((v * k) + c)) in
            if Bdd.is_zero restricted then pick (c + 1)
            else begin
              current := restricted;
              coloring.(v) <- c
            end
        in
        pick 0
      done;
      Colorable coloring
    end
  in
  match with_manager ?max_nodes graph ~k extract with
  | Some answer -> answer
  | None -> Node_limit

let count_colorings ?max_nodes graph ~k =
  let n = G.Graph.num_vertices graph in
  with_manager ?max_nodes graph ~k (fun m bdd ->
      Bdd.sat_count m ~nvars:(n * k) bdd)

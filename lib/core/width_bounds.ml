module G = Fpgasat_graph

type t = {
  clique : int array;
  coloring : G.Coloring.t;
  lower : int;
  upper : int;
}

let of_graph graph =
  let clique = Array.of_list (G.Clique.maximum graph) in
  let coloring = G.Greedy.dsatur graph in
  let lower = max 1 (Array.length clique) in
  { clique; coloring; lower; upper = max lower (G.Coloring.num_colors coloring) }

module G = Fpgasat_graph

type heuristic = B1 | S1

let all = [ B1; S1 ]
let name = function B1 -> "b1" | S1 -> "s1"

let of_name s =
  match String.lowercase_ascii s with
  | "b1" -> Some B1
  | "s1" -> Some S1
  | _ -> None

(* Descending degree, ties by descending sum of neighbours' degrees, then by
   ascending index for determinism. Both scores are computed once per
   vertex, so a comparison reads four ints. *)
let degree_order g vertices =
  let n = G.Graph.num_vertices g in
  let degree = Array.make n 0 and sum = Array.make n 0 in
  List.iter
    (fun v ->
      degree.(v) <- G.Graph.degree g v;
      sum.(v) <- G.Graph.neighbor_degree_sum g v)
    vertices;
  List.sort
    (fun a b ->
      if degree.(a) <> degree.(b) then Int.compare degree.(b) degree.(a)
      else if sum.(a) <> sum.(b) then Int.compare sum.(b) sum.(a)
      else Int.compare a b)
    vertices

let sequence heuristic g ~k =
  let n = G.Graph.num_vertices g in
  if n = 0 || k <= 1 then []
  else
    match heuristic with
    | S1 ->
        let all = List.init n Fun.id in
        let rec take n = function
          | [] -> []
          | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest
        in
        take (k - 1) (degree_order g all)
    | B1 ->
        let first = G.Graph.max_degree_vertex g in
        let neighbours = degree_order g (G.Graph.neighbors g first) in
        let rec take n = function
          | [] -> []
          | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest
        in
        first :: take (k - 2) neighbours

let forbidden heuristic g ~k =
  let seq = sequence heuristic g ~k in
  List.concat
    (List.mapi
       (fun i v -> List.init (k - 1 - i) (fun j -> (v, i + 1 + j)))
       seq)

let pp fmt h = Format.pp_print_string fmt (name h)

let pp_option fmt = function
  | None -> Format.pp_print_string fmt "-"
  | Some h -> pp fmt h

let by_degree_desc g =
  List.sort
    (fun a b -> compare (Graph.degree g b, a) (Graph.degree g a, b))
    (List.init (Graph.num_vertices g) Fun.id)

let greedy g =
  let n = Graph.num_vertices g in
  if n = 0 then []
  else begin
    let in_clique = Array.make n false in
    let clique = ref [] in
    let compatible v =
      List.for_all (fun u -> Graph.mem_edge g u v) !clique
    in
    List.iter
      (fun v ->
        if (not in_clique.(v)) && compatible v then begin
          in_clique.(v) <- true;
          clique := v :: !clique
        end)
      (by_degree_desc g);
    List.rev !clique
  end

let lower_bound g = List.length (greedy g)

let max_nodes = 100_000

exception Out_of_nodes

(* Bitsets of [Sys.int_size]-bit words. [lowest w] is the index of the
   lowest set bit of a non-zero word. *)
let bits = Sys.int_size

let lowest w =
  let w = ref w and i = ref 0 in
  while !w land 0xFF = 0 do
    i := !i + 8;
    w := !w lsr 8
  done;
  while !w land 1 = 0 do
    incr i;
    w := !w lsr 1
  done;
  !i

let is_empty s = Array.for_all (fun w -> w = 0) s

(* Tomita and Seki's MCQ over adjacency bitsets (San Segundo's BBMC).
   Vertices are renumbered by non-increasing degree. At each node the
   candidates are coloured greedily in that order, and a candidate of
   colour [c] can extend the current clique by at most [c] vertices, so
   branching runs from the highest colour down and stops once that cannot
   beat the best clique. The search starts from {!greedy}'s clique and,
   past [max_nodes], returns the best clique found so far. *)
let maximum g =
  let n = Graph.num_vertices g in
  let seed = greedy g in
  if n = 0 then []
  else begin
    let order = Array.of_list (by_degree_desc g) in
    let pos = Array.make n 0 in
    Array.iteri (fun i v -> pos.(v) <- i) order;
    let words = (n + bits - 1) / bits in
    let adj = Array.init n (fun _ -> Array.make words 0) in
    let add s i = s.(i / bits) <- s.(i / bits) lor (1 lsl (i mod bits)) in
    Graph.iter_edges
      (fun u v ->
        add adj.(pos.(u)) pos.(v);
        add adj.(pos.(v)) pos.(u))
      g;
    let best = ref (List.map (fun v -> pos.(v)) seed) in
    let best_size = ref (List.length seed) in
    let clique = Array.make n 0 in
    (* per-depth candidate sets and colour-sorted candidates, built on
       first use; [uncoloured] and [cls] are scratch for one colouring *)
    let cands = Array.make (n + 1) [||] in
    let verts = Array.make (n + 1) [||] and colours = Array.make (n + 1) [||] in
    let uncoloured = Array.make words 0 and cls = Array.make words 0 in
    let nodes = ref 0 in
    let rec expand depth =
      incr nodes;
      if !nodes > max_nodes then raise Out_of_nodes;
      let p = cands.(depth) in
      if Array.length verts.(depth) = 0 then begin
        verts.(depth) <- Array.make n 0;
        colours.(depth) <- Array.make n 0
      end;
      let vs = verts.(depth) and cs = colours.(depth) in
      Array.blit p 0 uncoloured 0 words;
      let m = ref 0 and colour = ref 0 in
      while not (is_empty uncoloured) do
        incr colour;
        Array.blit uncoloured 0 cls 0 words;
        for w = 0 to words - 1 do
          while cls.(w) <> 0 do
            let v = (w * bits) + lowest cls.(w) in
            let bit = 1 lsl (v mod bits) in
            uncoloured.(w) <- uncoloured.(w) lxor bit;
            cls.(w) <- cls.(w) lxor bit;
            let a = adj.(v) in
            for x = w to words - 1 do
              cls.(x) <- cls.(x) land lnot a.(x)
            done;
            vs.(!m) <- v;
            cs.(!m) <- !colour;
            incr m
          done
        done
      done;
      let i = ref (!m - 1) in
      while !i >= 0 && depth + cs.(!i) > !best_size do
        let v = vs.(!i) in
        clique.(depth) <- v;
        if Array.length cands.(depth + 1) = 0 then
          cands.(depth + 1) <- Array.make words 0;
        let next = cands.(depth + 1) and a = adj.(v) in
        for x = 0 to words - 1 do
          next.(x) <- p.(x) land a.(x)
        done;
        if not (is_empty next) then expand (depth + 1)
        else if depth + 1 > !best_size then begin
          best := Array.to_list (Array.sub clique 0 (depth + 1));
          best_size := depth + 1
        end;
        p.(v / bits) <- p.(v / bits) land lnot (1 lsl (v mod bits));
        decr i
      done
    in
    cands.(0) <- Array.make words 0;
    for v = 0 to n - 1 do
      add cands.(0) v
    done;
    (try expand 0 with Out_of_nodes -> ());
    List.sort compare (List.map (fun i -> order.(i)) !best)
  end

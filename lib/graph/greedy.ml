(* DSATUR in O(n + m) words. Each uncoloured vertex w keeps a flag per
   colour 0 .. deg w, in a slice of one byte array, saying whether a
   neighbour has it: those are the only colours w itself can get (it has
   deg w neighbours), and they count its saturation. A neighbour's colour
   above deg w is rare and is looked up among w's neighbours instead.
   Picks come from a max-heap of (saturation, vertex) entries pushed
   whenever a saturation grows; an entry whose vertex is coloured or has
   grown since is stale and skipped. *)
let dsatur g =
  let n = Graph.num_vertices g in
  (* adjacency in one flat array: w's neighbours are adj.(start w ..) *)
  let start = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    start.(v + 1) <- start.(v) + Graph.degree g v
  done;
  let degree v = start.(v + 1) - start.(v) in
  let adj = Array.make start.(n) 0 in
  let fill = Array.sub start 0 n in
  Graph.iter_edges
    (fun u v ->
      adj.(fill.(u)) <- v;
      fill.(u) <- fill.(u) + 1;
      adj.(fill.(v)) <- u;
      fill.(v) <- fill.(v) + 1)
    g;
  let coloring = Array.make n (-1) in
  let saturation = Array.make n 0 in
  (* w's flag for colour c is seen.[start w + w + c], for c <= deg w *)
  let seen = Bytes.make (n + start.(n)) '\000' in
  let neighbour_has w c ~besides =
    if c <= degree w then Bytes.get seen (start.(w) + w + c) <> '\000'
    else begin
      let found = ref false in
      for k = start.(w) to start.(w + 1) - 1 do
        let u = adj.(k) in
        if u <> besides && coloring.(u) = c then found := true
      done;
      !found
    end
  in
  (* The heap: n initial entries and at most one per saturation step, of
     which there are at most 2m. Entry a precedes b on higher saturation,
     then higher degree, then lower index — the order DSATUR picks in. *)
  let cap = max 1 (n + start.(n)) in
  let hsat = Array.make cap 0 and hv = Array.make cap 0 in
  let size = ref 0 in
  let before i j =
    let si = hsat.(i) and sj = hsat.(j) in
    si > sj
    ||
    let vi = hv.(i) and vj = hv.(j) in
    si = sj && (degree vi > degree vj || (degree vi = degree vj && vi < vj))
  in
  let swap i j =
    let s = hsat.(i) and v = hv.(i) in
    hsat.(i) <- hsat.(j);
    hv.(i) <- hv.(j);
    hsat.(j) <- s;
    hv.(j) <- v
  in
  let rec sift_up i =
    let p = (i - 1) / 2 in
    if i > 0 && before i p then begin
      swap i p;
      sift_up p
    end
  in
  let rec sift_down i =
    let l = (2 * i) + 1 in
    let c = if l + 1 < !size && before (l + 1) l then l + 1 else l in
    if c < !size && before c i then begin
      swap i c;
      sift_down c
    end
  in
  let push v =
    hsat.(!size) <- saturation.(v);
    hv.(!size) <- v;
    incr size;
    sift_up (!size - 1)
  in
  let rec pick () =
    let s = hsat.(0) and v = hv.(0) in
    decr size;
    hsat.(0) <- hsat.(!size);
    hv.(0) <- hv.(!size);
    sift_down 0;
    if coloring.(v) < 0 && s = saturation.(v) then v else pick ()
  in
  for v = 0 to n - 1 do
    push v
  done;
  for _ = 1 to n do
    let v = pick () in
    let base = start.(v) + v in
    let c = ref 0 in
    while Bytes.get seen (base + !c) <> '\000' do
      incr c
    done;
    let c = !c in
    coloring.(v) <- c;
    for k = start.(v) to start.(v + 1) - 1 do
      let w = adj.(k) in
      if coloring.(w) < 0 && not (neighbour_has w c ~besides:v) then begin
        if c <= degree w then Bytes.set seen (start.(w) + w + c) '\001';
        saturation.(w) <- saturation.(w) + 1;
        push w
      end
    done
  done;
  coloring

let upper_bound g = Coloring.num_colors (dsatur g)

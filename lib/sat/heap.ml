(* A plain int array and a size: every variable is in the heap at most once,
   so [Array.length scores] slots always suffice and the heap never grows. *)
type t = {
  heap : int array; (* heap.(i) = variable at heap position i, i < size *)
  mutable size : int;
  pos : int array; (* pos.(v) = position of v, or -1 *)
  scores : float array;
}

let create ~scores =
  let n = max (Array.length scores) 1 in
  { heap = Array.make n (-1); size = 0; pos = Array.make n (-1); scores }

let in_heap t v = v < Array.length t.pos && t.pos.(v) >= 0
let is_empty t = t.size = 0
let lt t a b = t.scores.(a) > t.scores.(b) (* max-heap *)

let swap t i j =
  let a = t.heap.(i) and b = t.heap.(j) in
  t.heap.(i) <- b;
  t.heap.(j) <- a;
  t.pos.(a) <- j;
  t.pos.(b) <- i

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if lt t t.heap.(i) t.heap.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let n = t.size in
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = if l < n && lt t t.heap.(l) t.heap.(i) then l else i in
  let best = if r < n && lt t t.heap.(r) t.heap.(best) then r else best in
  if best <> i then begin
    swap t i best;
    sift_down t best
  end

let insert t v =
  if not (in_heap t v) then begin
    let i = t.size in
    t.pos.(v) <- i;
    t.heap.(i) <- v;
    t.size <- i + 1;
    sift_up t i
  end

let remove_max t =
  if is_empty t then raise Not_found;
  let top = t.heap.(0) in
  t.size <- t.size - 1;
  let last = t.heap.(t.size) in
  t.pos.(top) <- -1;
  if t.size > 0 then begin
    t.heap.(0) <- last;
    t.pos.(last) <- 0;
    sift_down t 0
  end;
  top

let rescore t v =
  if in_heap t v then begin
    sift_up t t.pos.(v);
    sift_down t t.pos.(v)
  end

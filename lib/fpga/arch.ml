type t = { n : int }
type direction = Horizontal | Vertical
type segment = { dir : direction; sx : int; sy : int }
type cell = int * int

let create n =
  if n < 1 then invalid_arg "Arch.create";
  { n }

let size t = t.n

(* vertical: (n+1) channels × n rows; horizontal: (n+1) channels × n cols *)
let num_segments t = 2 * (t.n + 1) * t.n

let in_bounds t s =
  match s.dir with
  | Vertical -> s.sx >= 0 && s.sx <= t.n && s.sy >= 0 && s.sy < t.n
  | Horizontal -> s.sy >= 0 && s.sy <= t.n && s.sx >= 0 && s.sx < t.n

let cell_in_bounds t (x, y) = x >= 0 && x < t.n && y >= 0 && y < t.n

let segment_id t s =
  if not (in_bounds t s) then invalid_arg "Arch.segment_id: out of bounds";
  match s.dir with
  | Vertical -> (s.sx * t.n) + s.sy
  | Horizontal -> ((t.n + 1) * t.n) + (s.sy * t.n) + s.sx

let segment_of_id t id =
  if id < 0 || id >= num_segments t then invalid_arg "Arch.segment_of_id";
  let vcount = (t.n + 1) * t.n in
  if id < vcount then { dir = Vertical; sx = id / t.n; sy = id mod t.n }
  else
    let id = id - vcount in
    { dir = Horizontal; sx = id mod t.n; sy = id / t.n }

(* Switch blocks sit at grid points (px, py) ∈ [0,n]²; a segment's two ends
   are grid points. *)
let endpoints s =
  match s.dir with
  | Vertical -> ((s.sx, s.sy), (s.sx, s.sy + 1))
  | Horizontal -> ((s.sx, s.sy), (s.sx + 1, s.sy))

let point_segments t (px, py) =
  let candidates =
    [
      { dir = Vertical; sx = px; sy = py - 1 };
      { dir = Vertical; sx = px; sy = py };
      { dir = Horizontal; sx = px - 1; sy = py };
      { dir = Horizontal; sx = px; sy = py };
    ]
  in
  List.filter (in_bounds t) candidates

let adjacent_segments t s =
  let a, b = endpoints s in
  let around = point_segments t a @ point_segments t b in
  List.filter (fun s' -> s' <> s) around

let segments_touch t s1 s2 =
  s1 <> s2 && List.mem s2 (adjacent_segments t s1)

let cell_segments t (x, y) =
  if not (cell_in_bounds t (x, y)) then invalid_arg "Arch.cell_segments";
  [
    { dir = Vertical; sx = x; sy = y };
    { dir = Vertical; sx = x + 1; sy = y };
    { dir = Horizontal; sx = x; sy = y };
    { dir = Horizontal; sx = x; sy = y + 1 };
  ]

let all_segments t = List.init (num_segments t) (segment_of_id t)

let pp_segment fmt s =
  Format.fprintf fmt "%c(%d,%d)"
    (match s.dir with Vertical -> 'V' | Horizontal -> 'H')
    s.sx s.sy

type params = {
  iterations : int;
  present_factor : float;
  history_factor : float;
  capacity : int;
}

let default_params =
  { iterations = 8; present_factor = 0.7; history_factor = 0.35; capacity = 4 }

(* Dijkstra's open segments: a binary min-heap of segment ids ordered by
   (dist, id), so ties break on ids and routing is deterministic. A segment
   is in it at most once and [pos] finds it when its distance drops, so the
   heap never grows and moves ints only. *)
module Pq = struct
  type t = {
    dist : float array;
    heap : int array;
    pos : int array;
    mutable size : int;
  }

  let create dist =
    let n = Array.length dist in
    { dist; heap = Array.make n 0; pos = Array.make n 0; size = 0 }

  let lt q a b =
    let da = q.dist.(a) and db = q.dist.(b) in
    da < db || (da = db && a < b)

  let place q i s =
    q.heap.(i) <- s;
    q.pos.(s) <- i

  (* [s] goes into the hole at [i], moving up past larger parents *)
  let rec sift_up q i s =
    let p = (i - 1) / 2 in
    if i > 0 && lt q s q.heap.(p) then begin
      place q i q.heap.(p);
      sift_up q p s
    end
    else place q i s

  let rec sift_down q i s =
    let l = (2 * i) + 1 in
    let c =
      if l + 1 < q.size && lt q q.heap.(l + 1) q.heap.(l) then l + 1 else l
    in
    if c < q.size && lt q q.heap.(c) s then begin
      place q i q.heap.(c);
      sift_down q c s
    end
    else place q i s

  let push q s =
    q.size <- q.size + 1;
    sift_up q (q.size - 1) s

  let decrease q s = sift_up q q.pos.(s) s
  let clear q = q.size <- 0
  let is_empty q = q.size = 0

  let pop q =
    let top = q.heap.(0) in
    q.size <- q.size - 1;
    if q.size > 0 then sift_down q 0 q.heap.(q.size);
    top
end

let route ?(params = default_params) arch netlist =
  let nsegs = Arch.num_segments arch in
  let subnets = netlist.Netlist.subnets in
  let nsub = Array.length subnets in
  let seg_ids segs = Array.of_list (List.map (Arch.segment_id arch) segs) in
  (* the segment graph as one flat adjacency array, in Arch's order *)
  let adj_start = Array.make (nsegs + 1) 0 in
  let adj =
    let lists =
      Array.init nsegs (fun id ->
          seg_ids (Arch.adjacent_segments arch (Arch.segment_of_id arch id)))
    in
    Array.iteri (fun id a -> adj_start.(id + 1) <- adj_start.(id) + Array.length a) lists;
    Array.concat (Array.to_list lists)
  in
  (* each subnet's four source segments, then its four sink segments *)
  let ends =
    Array.map
      (fun (s : Netlist.subnet) ->
        Array.append
          (seg_ids (Arch.cell_segments arch s.from_cell))
          (seg_ids (Arch.cell_segments arch s.to_cell)))
      subnets
  in
  (* the other subnets of each subnet's net *)
  let siblings =
    let by_net = Hashtbl.create (Netlist.num_nets netlist) in
    Array.iter
      (fun (s : Netlist.subnet) ->
        let ids = Option.value (Hashtbl.find_opt by_net s.parent) ~default:[] in
        Hashtbl.replace by_net s.parent (s.subnet_id :: ids))
      subnets;
    Array.map
      (fun (s : Netlist.subnet) ->
        List.filter (( <> ) s.subnet_id) (Hashtbl.find by_net s.parent))
      subnets
  in
  (* users.(seg) is the number of distinct nets with a subnet through seg *)
  let users = Array.make nsegs 0 in
  let history = Array.make nsegs 0. in
  let paths = Array.make nsub [] in
  (* Per-subnet marks, valid where they equal the subnet's [round]:
     [sibling] marks the segments its net holds through its other
     subnets, [reached] the segments [dist] and [prev] hold a value for,
     [settled] the segments Dijkstra has closed. *)
  let round = ref 0 in
  let sibling = Array.make nsegs 0 in
  let reached = Array.make nsegs 0 in
  let settled = Array.make nsegs 0 in
  let dist = Array.make nsegs infinity in
  let prev = Array.make nsegs (-1) in
  let q = Pq.create dist in
  (* Reaching [s] from [from] (or from the source cell, [from] = -1) adds
     the segment's cost: 1, plus the other nets on it beyond capacity
     (present congestion), plus its accumulated history. *)
  let relax s from =
    let others = if sibling.(s) = !round then users.(s) - 1 else users.(s) in
    let over = others + 1 - params.capacity in
    let over = if over > 0 then over else 0 in
    let d = if from < 0 then 0. else dist.(from) in
    let c =
      d
      +. (1.
         +. (params.present_factor *. float_of_int over)
         +. (params.history_factor *. history.(s)))
    in
    if reached.(s) <> !round then begin
      reached.(s) <- !round;
      dist.(s) <- c;
      prev.(s) <- from;
      Pq.push q s
    end
    else if c < dist.(s) then begin
      dist.(s) <- c;
      prev.(s) <- from;
      Pq.decrease q s
    end
  in
  let rec walk s acc = if s < 0 then acc else walk prev.(s) (s :: acc) in
  let dijkstra id =
    let e = ends.(id) in
    Pq.clear q;
    for k = 0 to 3 do
      relax e.(k) (-1)
    done;
    let goal = ref (-1) in
    while !goal < 0 do
      (* the segment graph is connected: a sink segment is reached first *)
      assert (not (Pq.is_empty q));
      let s = Pq.pop q in
      settled.(s) <- !round;
      if s = e.(4) || s = e.(5) || s = e.(6) || s = e.(7) then goal := s
      else
        for k = adj_start.(s) to adj_start.(s + 1) - 1 do
          if settled.(adj.(k)) <> !round then relax adj.(k) s
        done
    done;
    walk !goal []
  in
  let rec stamp = function
    | [] -> ()
    | s :: rest ->
        sibling.(s) <- !round;
        stamp rest
  in
  (* [count delta path] moves [users] on the path's segments that no
     sibling holds: only there does this net start or stop using one *)
  let rec count delta = function
    | [] -> ()
    | s :: rest ->
        if sibling.(s) <> !round then users.(s) <- users.(s) + delta;
        count delta rest
  in
  let route_subnet id =
    incr round;
    List.iter (fun j -> stamp paths.(j)) siblings.(id);
    count (-1) paths.(id);
    paths.(id) <- dijkstra id;
    count 1 paths.(id)
  in
  for _iter = 1 to params.iterations do
    for id = 0 to nsub - 1 do
      route_subnet id
    done;
    (* accumulate history on currently overused segments *)
    for s = 0 to nsegs - 1 do
      if users.(s) > params.capacity then
        history.(s) <- history.(s) +. float_of_int (users.(s) - params.capacity)
    done
  done;
  let segment_paths = Array.map (List.map (Arch.segment_of_id arch)) paths in
  Global_route.make_exn arch netlist segment_paths

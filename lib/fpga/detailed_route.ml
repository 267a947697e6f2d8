type t = { route : Global_route.t; width : int; tracks : int array }

type violation =
  | Track_out_of_range of int
  | Segment_conflict of { segment : Arch.segment; subnet_a : int; subnet_b : int }

exception Bad of violation

let verify (gr : Global_route.t) ~width tracks =
  let arch = gr.Global_route.arch in
  let netlist = gr.Global_route.netlist in
  let parent id = netlist.Netlist.subnets.(id).Netlist.parent in
  try
    Array.iteri
      (fun id trk -> if trk < 0 || trk >= width then raise (Bad (Track_out_of_range id)))
      tracks;
    (* (segment, track) -> first subnet seen there; a second subnet from a
       different net is a short *)
    let seen = Hashtbl.create 256 in
    Array.iteri
      (fun id path ->
        List.iter
          (fun seg ->
            let key = (Arch.segment_id arch seg, tracks.(id)) in
            match Hashtbl.find_opt seen key with
            | Some other when parent other <> parent id ->
                raise (Bad (Segment_conflict { segment = seg; subnet_a = other; subnet_b = id }))
            | Some _ -> ()
            | None -> Hashtbl.add seen key id)
          path)
      gr.Global_route.paths;
    Ok ()
  with Bad v -> Error v

(* Subnets of different nets that share a segment need different tracks,
   so a set of them that pairwise do needs a track each. *)
let clique_refutes (gr : Global_route.t) ~width subnets =
  let netlist = gr.Global_route.netlist in
  let count = Array.length gr.Global_route.paths in
  let k = Array.length subnets in
  k > max 0 width
  && Array.for_all (fun id -> id >= 0 && id < count) subnets
  &&
  let parent id = netlist.Netlist.subnets.(id).Netlist.parent in
  let segments = Array.map (Global_route.segments_used gr) subnets in
  let conflict i j =
    parent subnets.(i) <> parent subnets.(j)
    && List.exists (fun s -> List.mem s segments.(j)) segments.(i)
  in
  let rec pairwise i j =
    if i >= k then true
    else if j >= k then pairwise (i + 1) (i + 2)
    else conflict i j && pairwise i (j + 1)
  in
  pairwise 0 1

let of_coloring gr ~width coloring =
  match verify gr ~width coloring with
  | Ok () -> Ok { route = gr; width; tracks = Array.copy coloring }
  | Error _ as err -> err

let track t id = t.tracks.(id)

let pp_violation fmt = function
  | Track_out_of_range id -> Format.fprintf fmt "subnet %d: track out of range" id
  | Segment_conflict { segment; subnet_a; subnet_b } ->
      Format.fprintf fmt "subnets %d and %d collide on segment %a" subnet_a
        subnet_b Arch.pp_segment segment

let channel_occupancy t =
  let arch = t.route.Global_route.arch in
  let tbl = Hashtbl.create 64 in
  Array.iteri
    (fun id path ->
      List.iter
        (fun seg ->
          let sid = Arch.segment_id arch seg in
          Hashtbl.replace tbl sid
            ((t.tracks.(id), id) :: Option.value (Hashtbl.find_opt tbl sid) ~default:[]))
        path)
    t.route.Global_route.paths;
  Hashtbl.fold
    (fun sid entries acc -> (Arch.segment_of_id arch sid, List.sort compare entries) :: acc)
    tbl []
  |> List.sort compare

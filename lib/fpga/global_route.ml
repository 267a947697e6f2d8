type t = {
  arch : Arch.t;
  netlist : Netlist.t;
  paths : Arch.segment list array;
}

let validate_path arch (subnet : Netlist.subnet) path =
  let touches_cell cell seg = List.mem seg (Arch.cell_segments arch cell) in
  match path with
  | [] -> Error (Printf.sprintf "subnet %d: empty path" subnet.Netlist.subnet_id)
  | _
    when not
           (Arch.cell_in_bounds arch subnet.Netlist.from_cell
           && Arch.cell_in_bounds arch subnet.Netlist.to_cell) ->
      Error
        (Printf.sprintf "subnet %d: endpoint outside the %dx%d grid"
           subnet.Netlist.subnet_id (Arch.size arch) (Arch.size arch))
  | first :: _ ->
      let last = List.nth path (List.length path - 1) in
      if List.exists (fun s -> not (Arch.in_bounds arch s)) path then
        Error (Printf.sprintf "subnet %d: segment out of bounds" subnet.Netlist.subnet_id)
      else if not (touches_cell subnet.Netlist.from_cell first) then
        Error
          (Printf.sprintf "subnet %d: path does not start at the source"
             subnet.Netlist.subnet_id)
      else if not (touches_cell subnet.Netlist.to_cell last) then
        Error
          (Printf.sprintf "subnet %d: path does not end at the sink"
             subnet.Netlist.subnet_id)
      else
        let rec connected = function
          | a :: (b :: _ as rest) ->
              if Arch.segments_touch arch a b then connected rest
              else
                Error
                  (Printf.sprintf "subnet %d: disconnected path"
                     subnet.Netlist.subnet_id)
          | [ _ ] | [] -> Ok ()
        in
        connected path

let make arch netlist paths =
  if Array.length paths <> Netlist.num_subnets netlist then
    Error "path count differs from subnet count"
  else
    let rec check i =
      if i >= Array.length paths then Ok { arch; netlist; paths }
      else
        match validate_path arch netlist.Netlist.subnets.(i) paths.(i) with
        | Ok () -> check (i + 1)
        | Error _ as err -> err
    in
    check 0

let make_exn arch netlist paths =
  match make arch netlist paths with
  | Ok t -> t
  | Error msg -> invalid_arg ("Global_route.make: " ^ msg)

let path t id = t.paths.(id)

let total_wirelength t =
  Array.fold_left (fun acc p -> acc + List.length p) 0 t.paths

let segments_used t id = List.map (Arch.segment_id t.arch) t.paths.(id)

let pp fmt t =
  Format.fprintf fmt "global_route(subnets=%d, wirelength=%d)"
    (Array.length t.paths) (total_wirelength t)

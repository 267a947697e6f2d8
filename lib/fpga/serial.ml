exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let netlist_to_string arch netlist =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "fpga %d\n" (Arch.size arch));
  Array.iter
    (fun (net : Netlist.net) ->
      let sx, sy = net.Netlist.source in
      Buffer.add_string buf (Printf.sprintf "net %d (%d,%d) ->" net.Netlist.net_id sx sy);
      List.iter
        (fun (x, y) -> Buffer.add_string buf (Printf.sprintf " (%d,%d)" x y))
        net.Netlist.sinks;
      Buffer.add_char buf '\n')
    netlist.Netlist.nets;
  Buffer.contents buf

let tokens line =
  String.split_on_char ' ' line |> List.filter (fun s -> s <> "")

let parse_cell lineno s =
  try Scanf.sscanf s "(%d,%d)" (fun x y -> (x, y))
  with Scanf.Scan_failure _ | Failure _ | End_of_file ->
    fail "line %d: malformed cell %S" lineno s

(* Untrusted: routing allocates per channel segment, 2(n+1)n of them. *)
let max_size = 64

let parse_header lines =
  match lines with
  | [] -> fail "empty input"
  | (lineno, first) :: rest -> (
      match tokens first with
      | [ "fpga"; n ] -> (
          match int_of_string_opt n with
          | Some n when n > max_size ->
              fail "line %d: fpga size %d is more than the %d supported" lineno n
                max_size
          | Some n when n >= 1 -> (Arch.create n, rest)
          | Some _ | None -> fail "line %d: bad fpga size" lineno)
      | _ -> fail "line %d: expected 'fpga <n>' header" lineno)

let numbered_lines s =
  String.split_on_char '\n' s
  |> List.mapi (fun i l -> (i + 1, String.trim l))
  |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#')

(* Checks here everything [Netlist.make] would refuse, so that a bad file
   is a [Parse_error] naming its line. *)
let netlist_of_string s =
  let arch, rest = parse_header (numbered_lines s) in
  let ids = Hashtbl.create 64 in
  let parse_net (lineno, line) =
    match tokens line with
    | "net" :: id :: source :: "->" :: sinks when sinks <> [] -> (
        match int_of_string_opt id with
        | None -> fail "line %d: bad net id" lineno
        | Some net_id ->
            if Hashtbl.mem ids net_id then
              fail "line %d: duplicate net id %d" lineno net_id;
            Hashtbl.add ids net_id ();
            let check cell =
              if not (Arch.cell_in_bounds arch cell) then
                fail "line %d: cell out of bounds" lineno
              else cell
            in
            let source = check (parse_cell lineno source) in
            let sinks = List.map (fun s -> check (parse_cell lineno s)) sinks in
            if List.mem source sinks then
              fail "line %d: net %d lists its source as a sink" lineno net_id;
            { Netlist.net_id; source; sinks })
    | _ -> fail "line %d: expected 'net <id> (x,y) -> (x,y) ...'" lineno
  in
  (arch, Netlist.make (List.map parse_net rest))

let write_netlist path arch netlist =
  let oc = open_out path in
  output_string oc (netlist_to_string arch netlist);
  close_out oc

let read_netlist path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  netlist_of_string s

let segment_to_string (seg : Arch.segment) =
  Printf.sprintf "%c(%d,%d)"
    (match seg.Arch.dir with Arch.Vertical -> 'V' | Arch.Horizontal -> 'H')
    seg.Arch.sx seg.Arch.sy

let parse_segment lineno s =
  let dir =
    match s.[0] with
    | 'V' -> Arch.Vertical
    | 'H' -> Arch.Horizontal
    | _ -> fail "line %d: segment must start with V or H: %S" lineno s
    | exception Invalid_argument _ -> fail "line %d: empty segment" lineno
  in
  try
    Scanf.sscanf (String.sub s 1 (String.length s - 1)) "(%d,%d)" (fun x y ->
        { Arch.dir; sx = x; sy = y })
  with Scanf.Scan_failure _ | Failure _ | End_of_file | Invalid_argument _ ->
    fail "line %d: malformed segment %S" lineno s

let routes_to_string (gr : Global_route.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "fpga %d\n" (Arch.size gr.Global_route.arch));
  Array.iteri
    (fun id path ->
      Buffer.add_string buf (Printf.sprintf "subnet %d :" id);
      List.iter
        (fun seg -> Buffer.add_string buf (" " ^ segment_to_string seg))
        path;
      Buffer.add_char buf '\n')
    gr.Global_route.paths;
  Buffer.contents buf

let routes_of_string ~netlist s =
  let arch, rest = parse_header (numbered_lines s) in
  let n = Netlist.num_subnets netlist in
  let paths = Array.make n [] in
  let seen = Array.make n false in
  List.iter
    (fun (lineno, line) ->
      match tokens line with
      | "subnet" :: id :: ":" :: segs -> (
          match int_of_string_opt id with
          | Some id when id >= 0 && id < n ->
              if seen.(id) then fail "line %d: duplicate subnet %d" lineno id;
              seen.(id) <- true;
              paths.(id) <- List.map (parse_segment lineno) segs
          | Some _ | None -> fail "line %d: bad subnet id" lineno)
      | _ -> fail "line %d: expected 'subnet <id> : <segments>'" lineno)
    rest;
  Array.iteri
    (fun id present -> if not present then fail "subnet %d has no route" id)
    seen;
  match Global_route.make arch netlist paths with
  | Ok gr -> gr
  | Error msg -> fail "invalid routing: %s" msg

let write_routes path gr =
  let oc = open_out path in
  output_string oc (routes_to_string gr);
  close_out oc

let read_routes ~netlist path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  routes_of_string ~netlist s

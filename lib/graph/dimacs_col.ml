exception Parse_error of string

let fail line msg = raise (Parse_error (Printf.sprintf "line %d: %s" line msg))

let max_vertices = 1 lsl 22

(* The header is untrusted input. Its vertex count sizes the graph
   (isolated vertices appear nowhere else), so it is refused above
   [max_vertices] before anything is allocated; its edge count sizes
   nothing and is ignored. *)
let parse_lines lines =
  let graph = ref None in
  let handle_line lineno line =
    let line = String.trim line in
    if line = "" || line.[0] = 'c' then ()
    else
      let fields =
        String.split_on_char ' ' line
        |> List.concat_map (String.split_on_char '\t')
        |> List.filter (fun s -> s <> "")
      in
      match fields with
      | "p" :: rest -> (
          if !graph <> None then fail lineno "duplicate header";
          match rest with
          | [ "edge"; n; _m ] | [ "edges"; n; _m ] -> (
              match int_of_string_opt n with
              | Some n when n > max_vertices ->
                  fail lineno
                    (Printf.sprintf
                       "header declares %d vertices, more than the %d supported" n
                       max_vertices)
              | Some n when n >= 0 -> graph := Some (Graph.create n)
              | Some _ | None -> fail lineno "bad vertex count")
          | _ -> fail lineno "malformed p edge header")
      | [ "e"; u; v ] -> (
          match !graph with
          | None -> fail lineno "edge before header"
          | Some g -> (
              match (int_of_string_opt u, int_of_string_opt v) with
              | Some u, Some v ->
                  if u < 1 || v < 1 || u > Graph.num_vertices g || v > Graph.num_vertices g
                  then fail lineno "vertex out of range"
                  else if u = v then fail lineno "self-loop"
                  else Graph.add_edge g (u - 1) (v - 1)
              | _ -> fail lineno "bad edge line"))
      | _ -> fail lineno ("unrecognised line: " ^ line)
  in
  List.iteri (fun i line -> handle_line (i + 1) line) lines;
  match !graph with
  | None -> raise (Parse_error "missing p edge header")
  | Some g -> g

let parse_string s = parse_lines (String.split_on_char '\n' s)

let parse_file path =
  let ic = open_in path in
  let rec read acc =
    match input_line ic with
    | line -> read (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = read [] in
  close_in ic;
  parse_lines lines

let to_string ?(comments = []) g =
  let buf = Buffer.create 1024 in
  List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "c %s\n" c)) comments;
  Buffer.add_string buf
    (Printf.sprintf "p edge %d %d\n" (Graph.num_vertices g) (Graph.num_edges g));
  Graph.iter_edges
    (fun u v -> Buffer.add_string buf (Printf.sprintf "e %d %d\n" (u + 1) (v + 1)))
    g;
  Buffer.contents buf

let write_file path ?comments g =
  let oc = open_out path in
  output_string oc (to_string ?comments g);
  close_out oc

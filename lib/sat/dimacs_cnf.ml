exception Parse_error of string

let fail line msg = raise (Parse_error (Printf.sprintf "line %d: %s" line msg))

let max_vars = 1 lsl 22

(* Tokenise into ints, tracking line numbers for error messages; each 0
   closes a clause. The header is untrusted input. Its clause count sizes
   nothing: the literal arena and clause index grow with the clauses
   actually read, and the count is only compared with them at the end. Its
   variable count bounds the literals and becomes the formula's (unused
   variables are part of a DIMACS formula), so it is refused above
   [max_vars], which caps what a solver allocates per variable. *)
let parse_lines lines =
  let cnf = Cnf.create () in
  let header = ref None in
  let current = ref [] in
  let nclauses = ref 0 in
  let handle_token lineno tok =
    match !header with
    | None -> fail lineno (Printf.sprintf "unexpected token %S before header" tok)
    | Some (nv, _) -> (
        match int_of_string_opt tok with
        | None -> fail lineno (Printf.sprintf "not an integer: %S" tok)
        | Some 0 ->
            Cnf.add_clause cnf (List.rev !current);
            incr nclauses;
            current := []
        | Some d ->
            (* not [abs d]: [abs min_int] is negative *)
            if d < -nv || d > nv then
              fail lineno
                (Printf.sprintf "literal %d out of range (header says %d vars)" d nv);
            current := Lit.of_dimacs d :: !current)
  in
  let handle_line lineno line =
    let line = String.trim line in
    if line = "" then ()
    else if line.[0] = 'c' then ()
    else if line.[0] = 'p' then begin
      if !header <> None then fail lineno "duplicate header";
      match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
      | [ "p"; "cnf"; nv; nc ] -> (
          match (int_of_string_opt nv, int_of_string_opt nc) with
          | Some nv, _ when nv > max_vars ->
              fail lineno
                (Printf.sprintf "header declares %d variables, more than the %d supported"
                   nv max_vars)
          | Some nv, Some nc when nv >= 0 && nc >= 0 ->
              header := Some (nv, nc);
              Cnf.ensure_vars cnf nv
          | _ -> fail lineno "malformed p cnf header")
      | _ -> fail lineno "malformed p cnf header"
    end
    else
      String.split_on_char ' ' line
      |> List.concat_map (String.split_on_char '\t')
      |> List.filter (fun s -> s <> "")
      |> List.iter (handle_token lineno)
  in
  List.iteri (fun i line -> handle_line (i + 1) line) lines;
  (match !header with
  | None -> raise (Parse_error "missing p cnf header")
  | Some (_, nc) ->
      if !current <> [] then
        raise (Parse_error "unterminated clause at end of input");
      if !nclauses <> nc then
        raise
          (Parse_error
             (Printf.sprintf "header declares %d clauses but %d were read" nc
                !nclauses)));
  cnf

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

(* All writers share one Buffer-backed emitter iterating the arena directly:
   no per-clause array copies and no Printf formatting on the clause path. *)
let to_buffer buf ?(comments = []) cnf =
  List.iter
    (fun c ->
      Buffer.add_string buf "c ";
      Buffer.add_string buf c;
      Buffer.add_char buf '\n')
    comments;
  Buffer.add_string buf "p cnf ";
  Buffer.add_string buf (string_of_int (Cnf.num_vars cnf));
  Buffer.add_char buf ' ';
  Buffer.add_string buf (string_of_int (Cnf.num_clauses cnf));
  Buffer.add_char buf '\n';
  Cnf.iter_clauses' cnf ~f:(fun arena off len ->
      for k = off to off + len - 1 do
        Buffer.add_string buf (string_of_int (Lit.to_dimacs arena.(k)));
        Buffer.add_char buf ' '
      done;
      Buffer.add_string buf "0\n")

let buffer_for cnf = Buffer.create (64 + (4 * Cnf.num_lits cnf))

let output oc ?comments cnf =
  let buf = buffer_for cnf in
  to_buffer buf ?comments cnf;
  Buffer.output_buffer oc buf

let to_string ?comments cnf =
  let buf = buffer_for cnf in
  to_buffer buf ?comments cnf;
  Buffer.contents buf

let write_file path ?comments cnf =
  let oc = open_out path in
  output oc ?comments cnf;
  close_out oc

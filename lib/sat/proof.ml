type step = Add of Lit.t list | Delete of Lit.t list
type t = { steps : step Vec.t }

let create () = { steps = Vec.create ~dummy:(Add []) () }
let add t lits = Vec.push t.steps (Add lits)
let delete t lits = Vec.push t.steps (Delete lits)
let steps t = Vec.to_list t.steps
let num_steps t = Vec.size t.steps

let ends_with_empty t =
  let rec last_add i =
    if i < 0 then None
    else
      match Vec.get t.steps i with
      | Add lits -> Some lits
      | Delete _ -> last_add (i - 1)
  in
  match last_add (Vec.size t.steps - 1) with
  | Some [] -> true
  | Some _ | None -> false

exception Parse_error of string

let parse_line t line_no line =
  let fail fmt =
    Printf.ksprintf (fun s -> raise (Parse_error (Printf.sprintf "line %d: %s" line_no s))) fmt
  in
  let tokens =
    String.split_on_char ' ' line
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun s -> s <> "")
  in
  match tokens with
  | [] -> ()
  | "c" :: _ -> ()
  | first :: _ ->
      let is_delete = first = "d" in
      let body = if is_delete then List.tl tokens else tokens in
      let lits, terminated =
        List.fold_left
          (fun (acc, closed) tok ->
            if closed then fail "literals after terminating 0";
            match int_of_string_opt tok with
            | None -> fail "bad literal %S" tok
            | Some 0 -> (acc, true)
            (* not [abs d]: [abs min_int] is negative. The checker sizes its
               per-literal arrays by the largest variable it meets. *)
            | Some d when d < -Dimacs_cnf.max_vars || d > Dimacs_cnf.max_vars ->
                fail "literal %d is beyond the %d variables supported" d
                  Dimacs_cnf.max_vars
            | Some d -> (Lit.of_dimacs d :: acc, false))
          ([], false) body
      in
      if not terminated then fail "missing terminating 0";
      let lits = List.rev lits in
      if is_delete then delete t lits else add t lits

let parse ic =
  let t = create () in
  let rec loop n =
    match input_line ic with
    | line ->
        parse_line t n line;
        loop (n + 1)
    | exception End_of_file -> t
  in
  loop 1

let parse_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> parse ic)

let output oc t =
  let put_lits lits =
    List.iter (fun l -> Printf.fprintf oc "%d " (Lit.to_dimacs l)) lits;
    output_string oc "0\n"
  in
  Vec.iter
    (function
      | Add lits -> put_lits lits
      | Delete lits ->
          output_string oc "d ";
          put_lits lits)
    t.steps

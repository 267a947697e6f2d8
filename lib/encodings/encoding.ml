type t =
  | Simple of Simple_encoding.kind
  | Hier of {
      top : Simple_encoding.kind;
      top_vars : int;
      bottom : Simple_encoding.kind;
      shared : bool;
    }
  | Multi of {
      levels : (Simple_encoding.kind * int) list;
      bottom : Simple_encoding.kind;
    }

let layout t k =
  match t with
  | Simple kind -> Simple_encoding.layout kind k
  | Hier { top; top_vars; bottom; shared } ->
      Hierarchy.compose ~shared ~top ~top_vars ~bottom k
  | Multi { levels; bottom } -> Hierarchy.compose_levels ~levels ~bottom k

(* The paper capitalises ITE; reproduce that in display names. *)
let display_kind = function
  | Simple_encoding.Ite_linear -> "ITE-linear"
  | Simple_encoding.Ite_log -> "ITE-log"
  | k -> Simple_encoding.kind_name k

let name = function
  | Simple kind -> display_kind kind
  | Hier { top; top_vars; bottom; shared } ->
      Printf.sprintf "%s-%d+%s%s" (display_kind top) top_vars
        (display_kind bottom)
        (if shared then "" else "!unshared")
  | Multi { levels; bottom } ->
      String.concat "+"
        (List.map
           (fun (kind, vars) -> Printf.sprintf "%s-%d" (display_kind kind) vars)
           levels)
      ^ "+" ^ display_kind bottom

let of_name s =
  let s = String.lowercase_ascii (String.trim s) in
  let parse_top part =
    (* "<kind>-<n>" where <kind> may itself contain dashes *)
    match String.rindex_opt part '-' with
    | None -> None
    | Some i -> (
        let kind_str = String.sub part 0 i in
        let n_str = String.sub part (i + 1) (String.length part - i - 1) in
        match (Simple_encoding.kind_of_name kind_str, int_of_string_opt n_str) with
        | Some kind, Some n when n >= 1 -> Some (kind, n)
        | _ -> None)
  in
  let s, shared =
    match Filename.check_suffix s "!unshared" with
    | true -> (Filename.chop_suffix s "!unshared", false)
    | false -> (s, true)
  in
  match String.split_on_char '+' s with
  | [ simple ] -> (
      match Simple_encoding.kind_of_name simple with
      | Some kind -> Ok (Simple kind)
      | None -> Error (Printf.sprintf "unknown encoding %S" s))
  | [ top_part; bottom_part ] -> (
      match (parse_top top_part, Simple_encoding.kind_of_name bottom_part) with
      | Some (top, top_vars), Some bottom ->
          Ok (Hier { top; top_vars; bottom; shared })
      | _ -> Error (Printf.sprintf "unknown hierarchical encoding %S" s))
  | parts -> (
      (* three or more levels: every part but the last is "<kind>-<n>" *)
      let rec split_last acc = function
        | [] -> assert false
        | [ last ] -> (List.rev acc, last)
        | x :: rest -> split_last (x :: acc) rest
      in
      let level_parts, bottom_part = split_last [] parts in
      let levels = List.map parse_top level_parts in
      match (Simple_encoding.kind_of_name bottom_part, shared) with
      | Some bottom, true when List.for_all Option.is_some levels ->
          Ok (Multi { levels = List.map Option.get levels; bottom })
      | _ -> Error (Printf.sprintf "unknown multi-level encoding %S" s))

let compare a b = Stdlib.compare a b
let pp fmt t = Format.pp_print_string fmt (name t)

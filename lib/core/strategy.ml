module E = Fpgasat_encodings
module Sat = Fpgasat_sat

type t = {
  encoding : E.Encoding.t;
  symmetry : E.Symmetry.heuristic option;
  solver : Sat.Solver.config;
  solver_name : string;
}

let solver_of = function
  | `Siege_like -> (Sat.Solver.siege_like, "siege")
  | `Minisat_like -> (Sat.Solver.minisat_like, "minisat")

let make ?symmetry ?(solver = `Siege_like) encoding =
  let solver, solver_name = solver_of solver in
  { encoding; symmetry; solver; solver_name }

let name t =
  Printf.sprintf "%s/%s@%s"
    (E.Encoding.name t.encoding)
    (match t.symmetry with None -> "none" | Some h -> E.Symmetry.name h)
    t.solver_name

let of_name s =
  let ( let* ) = Result.bind in
  let body, solver =
    match String.index_opt s '@' with
    | None -> (s, Ok `Siege_like)
    | Some i -> (
        let solver_str = String.sub s (i + 1) (String.length s - i - 1) in
        ( String.sub s 0 i,
          match String.lowercase_ascii solver_str with
          | "siege" | "siege_v4" -> Ok `Siege_like
          | "minisat" -> Ok `Minisat_like
          | other -> Error (Printf.sprintf "unknown solver %S" other) ))
  in
  let* solver = solver in
  let enc_str, symmetry =
    match String.index_opt body '/' with
    | None -> (body, Ok None)
    | Some i -> (
        let sym_str = String.sub body (i + 1) (String.length body - i - 1) in
        ( String.sub body 0 i,
          match String.lowercase_ascii sym_str with
          | "none" | "-" -> Ok None
          | other -> (
              match E.Symmetry.of_name other with
              | Some h -> Ok (Some h)
              | None -> Error (Printf.sprintf "unknown symmetry heuristic %S" other)) ))
  in
  let* symmetry = symmetry in
  let* encoding = E.Registry.of_name enc_str in
  Ok (make ?symmetry:(Option.map Fun.id symmetry) ~solver encoding)

let enc name =
  match E.Encoding.of_name name with
  | Ok e -> e
  | Error msg -> invalid_arg msg

let best_single = make ~symmetry:E.Symmetry.S1 (enc "ITE-linear-2+muldirect")

let paper_portfolio_2 =
  [ best_single; make ~symmetry:E.Symmetry.S1 (enc "muldirect-3+muldirect") ]

let paper_portfolio_3 =
  paper_portfolio_2 @ [ make ~symmetry:E.Symmetry.S1 (enc "ITE-linear-2+direct") ]

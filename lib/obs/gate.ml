let schema_version = "fpgasat.bench/1"

(* Wall times below a microsecond are clock noise; clamping both sides of
   a ratio there keeps a 0-vs-0 cell at ratio 1 instead of 0/0. *)
let epsilon_seconds = 1e-6

type t = { sections : (string * (string * float) list) list }

let make sections = { sections }
let sections t = t.sections

let to_json t =
  Json.Obj
    [
      ("schema", Json.String schema_version);
      ( "sections",
        Json.Obj
          (List.map
             (fun (name, cells) ->
               ( name,
                 Json.Obj
                   (List.map (fun (k, v) -> (k, Json.Float v)) cells) ))
             t.sections) );
    ]

let of_json json =
  let ( let* ) = Result.bind in
  let* schema =
    match Json.find json "schema" with
    | Some (Json.String s) -> Ok s
    | Some _ -> Error "key \"schema\" is not a string"
    | None -> Error "missing key \"schema\""
  in
  if schema <> schema_version then
    Error
      (Printf.sprintf "unsupported schema %S (want %S)" schema schema_version)
  else
    let* sections =
      match Json.find json "sections" with
      | Some (Json.Obj kvs) -> Ok kvs
      | Some _ -> Error "key \"sections\" is not an object"
      | None -> Error "missing key \"sections\""
    in
    List.fold_left
      (fun acc (name, cells) ->
        let* acc = acc in
        let* cells =
          match cells with
          | Json.Obj kvs ->
              List.fold_left
                (fun acc (k, v) ->
                  let* acc = acc in
                  match v with
                  | Json.Float f -> Ok ((k, f) :: acc)
                  | Json.Int i -> Ok ((k, float_of_int i) :: acc)
                  | _ ->
                      Error
                        (Printf.sprintf "cell %S/%S is not a number" name k))
                (Ok []) kvs
              |> Result.map List.rev
          | _ -> Error (Printf.sprintf "section %S is not an object" name)
        in
        Ok ((name, cells) :: acc))
      (Ok []) sections
    |> Result.map (fun secs -> { sections = List.rev secs })

let of_string s =
  match Json.of_string s with
  | Error m -> Error ("invalid JSON: " ^ m)
  | Ok json -> of_json json

let of_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error m -> Error m
  | contents -> of_string contents

let to_file path t =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Json.to_string (to_json t));
      Out_channel.output_char oc '\n')

(* ---------- the check ---------- *)

type kind = Ratio of float | Exponent of float
type section = { name : string; kind : kind; cells : (string * float) list }

type cell = {
  cell : string;
  baseline : float;
  current : float option;
  ok : bool;
}

type section_report = {
  section : string;
  kind : kind option;
  ratio : float option;
  cells : cell list;
  ok : bool;
}

type report = { sections : section_report list; ok : bool }

let geomean = function
  | [] -> None
  | ratios ->
      let sum = List.fold_left (fun a r -> a +. log r) 0. ratios in
      Some (exp (sum /. float_of_int (List.length ratios)))

let check ~(baseline : t) ~(current : section list) =
  List.iter
    (fun (s : section) ->
      let (Ratio tol | Exponent tol) = s.kind in
      if tol <= 0. then invalid_arg "Gate.check: tolerance <= 0")
    current;
  let judge (name, base_cells) =
    match List.find_opt (fun s -> String.equal s.name name) current with
    | None ->
        (* a vanished section means the bench no longer measures what the
           baseline pinned — that is a gate failure, not a free pass *)
        let cells =
          List.map
            (fun (cell, baseline) ->
              { cell; baseline; current = None; ok = false })
            base_cells
        in
        { section = name; kind = None; ratio = None; cells; ok = false }
    | Some s ->
        let cells =
          List.map
            (fun (cell, baseline) ->
              let current = List.assoc_opt cell s.cells in
              let ok =
                match (current, s.kind) with
                | None, _ -> false
                | Some _, Ratio _ -> true
                | Some c, Exponent tol -> c <= baseline +. tol
              in
              { cell; baseline; current; ok })
            base_cells
        in
        let ratio =
          match s.kind with
          | Exponent _ -> None
          | Ratio _ ->
              geomean
                (List.filter_map
                   (fun (c : cell) ->
                     Option.map
                       (fun cur ->
                         Float.max cur epsilon_seconds
                         /. Float.max c.baseline epsilon_seconds)
                       c.current)
                   cells)
        in
        let ok =
          List.for_all (fun (c : cell) -> c.ok) cells
          &&
          match (s.kind, ratio) with
          | Ratio tol, Some g -> g <= tol
          | Ratio _, None | Exponent _, _ -> true
        in
        { section = name; kind = Some s.kind; ratio; cells; ok }
  in
  let sections = List.map judge baseline.sections in
  { sections; ok = List.for_all (fun (s : section_report) -> s.ok) sections }

let verdict ok = if ok then "ok" else "FAIL"

let render r =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "perf gate: each baseline section judged by its kind\n";
  List.iter
    (fun (s : section_report) ->
      let present = List.filter (fun (c : cell) -> c.current <> None) s.cells in
      let summary =
        match (s.kind, s.ratio) with
        | None, _ -> "missing from the current run"
        | Some (Ratio tol), Some g ->
            Printf.sprintf "%.3fx over %d cells (ratio, tolerance %.2fx)" g
              (List.length present) tol
        | Some (Ratio _), None -> "no comparable cells"
        | Some (Exponent tol), _ ->
            Printf.sprintf "%d cells (exponent, tolerance +%.2f)"
              (List.length present) tol
      in
      let missing =
        match
          List.filter_map
            (fun (c : cell) -> if c.current = None then Some c.cell else None)
            s.cells
        with
        | [] -> ""
        | ms ->
            Printf.sprintf "; missing: %s"
              (String.concat ", "
                 (if List.length ms > 4 then
                    List.filteri (fun i _ -> i < 4) ms @ [ "..." ]
                  else ms))
      in
      Buffer.add_string buf
        (Printf.sprintf "  %-4s %-10s %s%s\n" (verdict s.ok) s.section summary
           missing);
      (* an exponent is judged cell by cell, so every cell gets a line *)
      match s.kind with
      | Some (Exponent _) ->
          List.iter
            (fun (c : cell) ->
              Buffer.add_string buf
                (Printf.sprintf "    %-4s %-42s baseline %.3f, current %s\n"
                   (verdict c.ok) c.cell c.baseline
                   (match c.current with
                   | Some e -> Printf.sprintf "%.3f" e
                   | None -> "missing")))
            s.cells
      | Some (Ratio _) | None -> ())
    r.sections;
  Buffer.add_string buf
    (if r.ok then "PASS" else "FAIL: performance regression");
  Buffer.contents buf

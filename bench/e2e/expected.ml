(* Reference answers for the bundled benchmarks (expected.json): minimal
   channel width, clique lower bound and DSATUR upper bound.

   Every verdict the benchmark receives is scored against these, so they
   are produced by a path independent of the one under test — binary
   search with a fresh CNF per width rather than the server's warm ladder —
   and certified on both sides before they are written: a DRAT-checked
   refutation at w_min - 1, and a model check plus detailed-route
   verification at w_min. *)

module J = Fpgasat_obs.Json
module G = Fpgasat_graph
module F = Fpgasat_fpga
module C = Fpgasat_core

type entry = { name : string; w_min : int; clique_bound : int; dsatur_bound : int }

let schema = "fpgasat.e2e-expected/1"

let entry_of_json j =
  let int key = match J.find j key with Some (J.Int i) -> Some i | _ -> None in
  match (J.find j "name", int "w_min", int "clique_bound", int "dsatur_bound") with
  | Some (J.String name), Some w_min, Some clique_bound, Some dsatur_bound
    when clique_bound <= w_min && w_min <= dsatur_bound ->
      Ok { name; w_min; clique_bound; dsatur_bound }
  | _ -> Error ("malformed entry " ^ J.to_string j)

let load path =
  let text =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error m -> failwith ("cannot read reference answers: " ^ m)
  in
  let entries =
    match J.of_string text with
    | Error m -> Error m
    | Ok j -> (
        match (J.find j "schema", J.find j "benchmarks") with
        | Some (J.String s), Some (J.List l) when s = schema ->
            List.fold_right
              (fun e acc ->
                match (entry_of_json e, acc) with
                | Ok e, Ok acc -> Ok (e :: acc)
                | Error m, _ | _, Error m -> Error m)
              l (Ok [])
        | _ -> Error ("not a " ^ schema ^ " document"))
  in
  match entries with
  | Error m -> failwith (Printf.sprintf "%s: %s" path m)
  | Ok entries ->
      List.iter
        (fun name ->
          if not (List.exists (fun e -> e.name = name) entries) then
            failwith (Printf.sprintf "%s: no entry for %s" path name))
        F.Benchmarks.names;
      entries

let find entries name = List.find (fun e -> e.name = name) entries

(* One benchmark per line, so a regenerated file diffs line by line. *)
let to_text entries =
  let entry e =
    J.to_string
      (J.Obj
         [
           ("name", J.String e.name);
           ("w_min", J.Int e.w_min);
           ("clique_bound", J.Int e.clique_bound);
           ("dsatur_bound", J.Int e.dsatur_bound);
         ])
  in
  Printf.sprintf "{\"schema\":%S,\"certified_with\":%S,\"benchmarks\":[\n%s\n]}\n" schema
    (C.Strategy.name C.Strategy.best_single)
    (String.concat ",\n" (List.map entry entries))

let certified_run route ~width =
  C.Flow.(submit (default_request |> with_certify true) route ~width)

(* Recompute and certify one benchmark; [Error] names the failed check. *)
let regen_one spec =
  let inst = F.Benchmarks.build spec in
  let graph = inst.F.Benchmarks.graph and route = inst.F.Benchmarks.route in
  let name = spec.F.Benchmarks.name in
  let clique_bound = G.Clique.lower_bound graph in
  let dsatur_bound = G.Greedy.upper_bound graph in
  match C.Binary_search.minimal_width route with
  | Error m -> Error (Printf.sprintf "%s: width search failed: %s" name m)
  | Ok r ->
      let w_min = r.C.Binary_search.w_min in
      let sat = certified_run route ~width:w_min in
      let unsat = certified_run route ~width:(w_min - 1) in
      let fail what = Error (Printf.sprintf "%s: %s (w_min %d)" name what w_min) in
      if not (clique_bound <= w_min && w_min <= dsatur_bound) then
        fail "w_min outside [clique, DSATUR] bounds"
      else if
        not
          (match sat.C.Flow.outcome with
          | C.Flow.Routable _ -> sat.C.Flow.certified = Some true
          | _ -> false)
      then fail "no certified routing at w_min"
      else if
        not (unsat.C.Flow.outcome = C.Flow.Unroutable && unsat.C.Flow.certified = Some true)
      then fail "no DRAT-checked refutation at w_min - 1"
      else Ok { name; w_min; clique_bound; dsatur_bound }

(* Writes [path] only when every benchmark certified. *)
let regen path =
  let results =
    List.map
      (fun spec ->
        let r = regen_one spec in
        (match r with
        | Ok e ->
            Printf.printf "%-10s w_min=%d clique=%d dsatur=%d certified\n%!" e.name e.w_min
              e.clique_bound e.dsatur_bound
        | Error m -> Printf.printf "FAILED %s\n%!" m);
        r)
      F.Benchmarks.specs
  in
  match List.filter_map (function Error m -> Some m | Ok _ -> None) results with
  | [] ->
      let entries = List.filter_map Result.to_option results in
      Out_channel.with_open_bin path (fun oc -> output_string oc (to_text entries));
      Printf.printf "wrote %s\n" path;
      true
  | failures ->
      Printf.printf "refusing to write %s: %d check(s) failed\n" path (List.length failures);
      false

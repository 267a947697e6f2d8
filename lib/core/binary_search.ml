module F = Fpgasat_fpga

type search_result = {
  w_min : int;
  routing : F.Detailed_route.t;
  unsat_below : Flow.run option;
  runs : Flow.run list;
}

let minimal_width ?strategy ?budget route =
  let { Width_bounds.lower; upper; _ } =
    Width_bounds.of_graph (F.Conflict_graph.build route)
  in
  let request =
    let r = Flow.default_request in
    let r =
      match strategy with None -> r | Some s -> Flow.with_strategy s r
    in
    match budget with None -> r | Some b -> Flow.with_budget b r
  in
  let runs = ref [] in
  let check width =
    let run = Flow.submit request route ~width in
    runs := run :: !runs;
    run
  in
  (* invariant: lo is unknown-or-routable bound's floor, [hi] is known
     routable (routing kept); widths below [lo] are known unroutable *)
  let rec search lo hi best_routing best_unsat =
    if lo >= hi then Ok (hi, best_routing, best_unsat)
    else
      let mid = (lo + hi) / 2 in
      let run = check mid in
      match run.Flow.outcome with
      | Flow.Routable detailed -> search lo mid (Some detailed) best_unsat
      | Flow.Unroutable -> search (mid + 1) hi best_routing (Some run)
      | Flow.Timeout -> Error "budget exhausted during width search"
      | Flow.Memout -> Error "memory budget exhausted during width search"
  in
  (* make sure the DSATUR bound is actually routable (it must be; checking
     also produces the routing object) *)
  let top = check upper in
  match top.Flow.outcome with
  | Flow.Timeout -> Error "budget exhausted at the upper bound"
  | Flow.Memout -> Error "memory budget exhausted at the upper bound"
  | Flow.Unroutable ->
      Error "internal error: DSATUR width reported unroutable"
  | Flow.Routable top_routing -> (
      match search lower upper (Some top_routing) None with
      | Error _ as err -> err
      | Ok (w_min, Some routing, unsat_below) ->
          (* when the search never refuted w_min - 1 (w_min = maximum
             clique), the optimality proof is structural, not a SAT run *)
          Ok { w_min; routing; unsat_below; runs = List.rev !runs }
      | Ok (_, None, _) -> Error "internal error: no routing recorded")

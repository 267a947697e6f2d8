(* Portfolio race: really parallel strategy portfolios on OCaml 5 domains.

   The paper (Sect. 6) proposes running several (encoding, symmetry)
   strategies on different cores and cancelling the losers as soon as one
   answers. This example races the paper's 3-strategy portfolio against its
   best single strategy on an unroutable configuration of C1355 and reports
   both wall-clock times.

   Run with: dune exec examples/portfolio_race.exe *)

module Sat = Fpgasat_sat
module F = Fpgasat_fpga
module C = Fpgasat_core
module P = Fpgasat_engine.Portfolio

let () =
  let spec = Option.get (F.Benchmarks.find "C1355") in
  let inst = F.Benchmarks.build spec in
  Format.printf "%a@." F.Benchmarks.pp_instance inst;

  let budget = Sat.Solver.time_budget 120. in
  let w =
    match C.Binary_search.minimal_width ~budget inst.F.Benchmarks.route with
    | Ok r -> r.C.Binary_search.w_min
    | Error m -> failwith m
  in
  Printf.printf "racing at the unroutable width W = %d\n\n" (w - 1);

  (* lone run of the best single strategy *)
  let t0 = Unix.gettimeofday () in
  let single =
    C.Flow.(
      submit
        (default_request
        |> with_strategy C.Strategy.best_single
        |> with_budget budget))
      inst.F.Benchmarks.route ~width:(w - 1)
  in
  let single_wall = Unix.gettimeofday () -. t0 in
  Printf.printf "best single strategy (%s):\n  %s in %.3fs wall\n\n"
    (C.Strategy.name C.Strategy.best_single)
    (match single.C.Flow.outcome with
    | C.Flow.Unroutable -> "UNROUTABLE"
    | C.Flow.Routable _ -> "ROUTABLE"
    | C.Flow.Timeout -> "timeout"
    | C.Flow.Memout -> "memout")
    single_wall;

  (* the 3-member portfolio, one domain per member, first answer wins *)
  print_endline "3-strategy portfolio on parallel domains:";
  let t0 = Unix.gettimeofday () in
  let result =
    P.run ~budget C.Strategy.paper_portfolio_3
      inst.F.Benchmarks.route ~width:(w - 1)
  in
  let portfolio_wall = Unix.gettimeofday () -. t0 in
  List.iter
    (fun (m : P.member_result) ->
      Printf.printf "  %-45s %-18s wall %.3fs\n"
        (C.Strategy.name m.P.strategy)
        (match m.P.run.C.Flow.outcome with
        | C.Flow.Unroutable -> "UNROUTABLE"
        | C.Flow.Routable _ -> "ROUTABLE"
        | C.Flow.Timeout -> "cancelled"
        | C.Flow.Memout -> "memout")
        m.P.wall_seconds)
    result.P.members;
  (match result.P.winner with
  | Some winner ->
      Printf.printf "\nwinner: %s\nportfolio wall time: %.3fs (vs %.3fs single)\n"
        (C.Strategy.name winner.P.strategy)
        portfolio_wall single_wall
  | None -> print_endline "no member answered in time");
  print_endline
    "\n(The portfolio's wall time tracks its fastest member; with more\n\
     members than cores the speedup saturates — the paper reports 2.30x\n\
     for this 3-strategy portfolio across the full benchmark set.)"

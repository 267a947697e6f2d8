module Sat = Fpgasat_sat
module C = Fpgasat_core

type member_result = {
  strategy : C.Strategy.t;
  run : C.Flow.run;
  wall_seconds : float;
}

type t = { winner : member_result option; members : member_result list }

let run ?jobs ?(budget = Sat.Solver.no_budget) strategies route ~width =
  if strategies = [] then invalid_arg "Portfolio.run: empty";
  let stop = Atomic.make false in
  let first = Atomic.make (-1) in
  let budget = Sat.Solver.interruptible (fun () -> Atomic.get stop) budget in
  let request = C.Flow.(default_request |> with_budget budget) in
  let worker i strategy () =
    let t0 = Unix.gettimeofday () in
    let run =
      C.Flow.submit (C.Flow.with_strategy strategy request) route ~width
    in
    if C.Flow.decisive run.C.Flow.outcome then begin
      ignore (Atomic.compare_and_set first (-1) i);
      Atomic.set stop true
    end;
    { strategy; run; wall_seconds = Unix.gettimeofday () -. t0 }
  in
  let results =
    Pool.map ?jobs (Array.of_list (List.mapi worker strategies))
  in
  let members =
    List.map2
      (fun strategy result ->
        match result with
        | Ok m -> m
        | Error e ->
            failwith
              (Printf.sprintf "Portfolio.run: member %s raised: %s"
                 (C.Strategy.name strategy) e.Pool.message))
      strategies (Array.to_list results)
  in
  (* first-answer-wins: the member whose decisive answer landed first in
     real time (CAS order), not whichever happens to report the smaller
     wall time after the fact. No decisive member leaves [first] at -1. *)
  let winner =
    match Atomic.get first with -1 -> None | i -> Some (List.nth members i)
  in
  { winner; members }

module Sat = Fpgasat_sat
module C = Fpgasat_core
module Json = Fpgasat_obs.Json

type fault =
  | Raise_at_conflict of int
  | Spurious_interrupt
  | Hook_raise
  | Alloc_burst of int
  | Torn_tail
  | Corrupt_drat

exception Injected of string

let fault_name = function
  | Raise_at_conflict _ -> "raise_at_conflict"
  | Spurious_interrupt -> "spurious_interrupt"
  | Hook_raise -> "hook_raise"
  | Alloc_burst _ -> "alloc_burst"
  | Torn_tail -> "torn_tail"
  | Corrupt_drat -> "corrupt_drat"

let all_kinds =
  [|
    Raise_at_conflict 3;
    Spurious_interrupt;
    Hook_raise;
    Alloc_burst 300;
    Torn_tail;
    Corrupt_drat;
  |]

type plan = { seed : int; faults : fault option array }

(* splitmix64 — a seeded, allocation-free generator so a plan is a pure
   function of (seed, cells): the same chaos run is replayable bit-for-bit
   on any machine, which is what lets CI assert exact classified counts. *)
let splitmix state =
  state := Int64.add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let rand_below state n =
  Int64.to_int (Int64.rem (Int64.logand (splitmix state) Int64.max_int) (Int64.of_int n))

let make ~seed ~cells =
  if cells < 0 then invalid_arg "Chaos.make: cells < 0";
  let state = ref (Int64.of_int seed) in
  let faults = Array.make cells None in
  (* every kind appears once before randomness takes over, so even a small
     plan exercises the full taxonomy *)
  let kinds = Array.length all_kinds in
  let slots = Array.init cells (fun i -> i) in
  for i = cells - 1 downto 1 do
    let j = rand_below state (i + 1) in
    let t = slots.(i) in
    slots.(i) <- slots.(j);
    slots.(j) <- t
  done;
  Array.iteri
    (fun rank slot ->
      if rank < kinds && rank < cells then
        faults.(slot) <- Some all_kinds.(rank)
      else if rand_below state 2 = 0 then
        faults.(slot) <- Some all_kinds.(rand_below state kinds))
    slots;
  { seed; faults }

let fault plan i =
  if i < 0 || i >= Array.length plan.faults then None else plan.faults.(i)

let described plan =
  Array.to_list plan.faults
  |> List.mapi (fun i f -> (i, Option.map fault_name f))

(* ---------- budget interposition ---------- *)

let with_interrupt hook (budget : Sat.Solver.budget) =
  let chained =
    match budget.Sat.Solver.interrupt with
    | None -> hook
    | Some prev -> fun () -> hook () || prev ()
  in
  Sat.Solver.with_poll_interval 1
    (Sat.Solver.interruptible chained budget)

(* ---------- fault implementations ---------- *)

(* A crash "at conflict n": the hook trips after n polls and the wrapper
   re-raises once the solver has unwound — from the supervisor's point of
   view the cell's code raised mid-solve, which is exactly the crash path
   under test. Raising from inside the hook would not do: the solver
   deliberately treats that as interrupt-fired (see Solver.budget). *)
let raise_at_conflict n job_run ~budget ~certify ~telemetry ~fallback =
  let polls = ref 0 in
  let fired = ref false in
  let hook () =
    incr polls;
    if !polls >= n then begin
      fired := true;
      true
    end
    else false
  in
  let run = job_run ~budget:(with_interrupt hook budget) ~certify ~telemetry ~fallback in
  if !fired then
    raise (Injected (Printf.sprintf "chaos: raised at conflict %d" n));
  run

let spurious_interrupt job_run ~budget ~certify ~telemetry ~fallback =
  job_run ~budget:(with_interrupt (fun () -> true) budget) ~certify ~telemetry ~fallback

let hook_raise job_run ~budget ~certify ~telemetry ~fallback =
  let hook () = raise (Injected "chaos: interrupt hook raised") in
  job_run ~budget:(with_interrupt hook budget) ~certify ~telemetry ~fallback

(* Holds [mb] megabytes of live ballast across the attempt so the solver's
   heap probe sees a swollen process — the deterministic stand-in for an
   exploding clause database. *)
let alloc_burst mb job_run ~budget ~certify ~telemetry ~fallback =
  let words = mb * (1024 * 1024 / (Sys.word_size / 8)) in
  let ballast = Array.make words 0 in
  Fun.protect
    ~finally:(fun () -> ignore (Sys.opaque_identity ballast.(0)))
    (fun () -> job_run ~budget ~certify ~telemetry ~fallback)

(* Chops a few bytes off the results file before the cell runs — the torn
   final line a kill leaves behind. Only meaningful under jobs = 1, where
   the file's tail is a complete record of an earlier cell; resume must
   ignore the torn line and re-run only that cell. *)
let torn_tail out job_run ~budget ~certify ~telemetry ~fallback =
  (match out with
  | Some path when Sys.file_exists path ->
      let len = (Unix.stat path).Unix.st_size in
      if len > 5 then
        let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () -> Unix.ftruncate fd (len - 5))
  | _ -> ());
  job_run ~budget ~certify ~telemetry ~fallback

(* Drops the final (empty-clause) addition from an UNSAT proof, the way a
   torn proof file would: certification must notice and report
   [certified = Some false] rather than trusting the answer. *)
let corrupt_proof p =
  let corrupted = Sat.Proof.create () in
  let steps = Sat.Proof.steps p in
  let n = List.length steps in
  List.iteri
    (fun i step ->
      match step with
      | Sat.Proof.Add lits when i = n - 1 && lits = [] -> ()
      | Sat.Proof.Add lits -> Sat.Proof.add corrupted lits
      | Sat.Proof.Delete lits -> Sat.Proof.delete corrupted lits)
    steps;
  corrupted

let corrupt_drat job_run ~budget ~certify:_ ~telemetry ~fallback =
  let run = job_run ~budget ~certify:true ~telemetry ~fallback in
  match (run.C.Flow.outcome, run.C.Flow.proof) with
  | C.Flow.Unroutable, Some p when Sat.Proof.ends_with_empty p ->
      let corrupted = corrupt_proof p in
      {
        run with
        C.Flow.proof = Some corrupted;
        certified = Some (Sat.Proof.ends_with_empty corrupted);
      }
  | _ -> run

(* ---------- injection ---------- *)

let wrap ?out fault (job : Sweep.job) =
  let run = job.Sweep.run in
  let run =
    match fault with
    | Raise_at_conflict n -> raise_at_conflict n run
    | Spurious_interrupt -> spurious_interrupt run
    | Hook_raise -> hook_raise run
    | Alloc_burst mb -> alloc_burst mb run
    | Torn_tail -> torn_tail out run
    | Corrupt_drat -> corrupt_drat run
  in
  { job with Sweep.run }

let inject ?out plan jobs =
  List.mapi
    (fun i job ->
      match fault plan i with None -> job | Some f -> wrap ?out f job)
    jobs

(* ---------- server faults ---------- *)

module Server = struct
  type fault = Worker_kill | Torn_journal | Slow_client | Kill_server

  let fault_name = function
    | Worker_kill -> "worker_kill"
    | Torn_journal -> "torn_journal"
    | Slow_client -> "slow_client"
    | Kill_server -> "kill_server"

  let of_name = function
    | "worker_kill" -> Some Worker_kill
    | "torn_journal" -> Some Torn_journal
    | "slow_client" -> Some Slow_client
    | "kill_server" -> Some Kill_server
    | _ -> None

  let all = [| Worker_kill; Torn_journal; Slow_client; Kill_server |]

  (* Same discipline as the sweep plans: a pure function of (seed, n), so
     a CI chaos run replays bit-for-bit. Every kind appears before
     randomness takes over. *)
  let plan ~seed ~n =
    if n < 0 then invalid_arg "Chaos.Server.plan: n < 0";
    let state = ref (Int64.of_int seed) in
    Array.init n (fun i ->
        if i < Array.length all then all.(i)
        else all.(rand_below state (Array.length all)))

  (* Truncate [bytes] off the journal's tail — the torn final line a kill
     mid-append leaves behind. The next attach must skip the fragment, not
     crash on it. *)
  let tear_journal ?(bytes = 5) path =
    match (Unix.stat path).Unix.st_size with
    | exception Unix.Unix_error _ -> ()
    | len ->
        if len > bytes then begin
          let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
          Fun.protect
            ~finally:(fun () -> Unix.close fd)
            (fun () -> Unix.ftruncate fd (len - bytes))
        end

  (* The supervisor invariants a restarted (or worker-killed) server must
     uphold: the worker pool back at its configured size, and every
     answer that was decisive before the fault replayed byte-identically
     after it. [pairs] are (before, after) serialized run payloads. *)
  let check_invariants ~expected_workers ~stats ~pairs =
    let pool_workers =
      match Json.find stats "pool" with
      | Some pool -> (
          match Json.find pool "workers" with
          | Some (Json.Int n) -> Some n
          | _ -> None)
      | None -> None
    in
    match pool_workers with
    | None -> Error "server stats carry no pool.workers gauge"
    | Some n when n <> expected_workers ->
        Error
          (Printf.sprintf "pool not restored: %d workers live, %d configured"
             n expected_workers)
    | Some _ -> (
        let rec check i = function
          | [] -> Ok ()
          | (before, after) :: rest ->
              if String.equal before after then check (i + 1) rest
              else
                Error
                  (Printf.sprintf
                     "cached answer %d not replayed byte-identically:\n\
                      before: %s\n\
                      after:  %s"
                     i before after)
        in
        check 0 pairs)
end

module C = Fpgasat_core

type t =
  | Timeout
  | Memout
  | Crash of { exn_class : string; message : string; backtrace : string option }

let of_outcome = function
  | C.Flow.Routable _ | C.Flow.Unroutable -> None
  | C.Flow.Timeout -> Some Timeout
  | C.Flow.Memout -> Some Memout

let of_exn ?backtrace e =
  Crash
    {
      exn_class = Printexc.exn_slot_name e;
      message = Printexc.to_string e;
      backtrace;
    }

let name = function
  | Timeout -> "timeout"
  | Memout -> "memout"
  | Crash { exn_class; _ } -> "crash:" ^ exn_class

let message = function
  | Timeout -> "wall-clock or conflict budget exhausted"
  | Memout -> "memory budget exhausted"
  | Crash { message; _ } -> message

let backtrace = function
  | Timeout | Memout -> None
  | Crash { backtrace; _ } -> backtrace

(* Retries help when the failure might not recur under a bigger budget or a
   different solver; a crash is deterministic for a deterministic solver but
   the fallback presets may still dodge it, so everything is retryable — the
   distinction the supervisor acts on is decisive vs. not. *)
let transient = function Timeout | Memout -> true | Crash _ -> false

(* A crash whose exception class is the pool's deliberate domain-kill
   channel: the request did not merely fail, it took a worker domain with
   it. The serving layer's poison-quarantine decisions key on this. *)
let error_is_worker_death (e : Pool.error) =
  String.equal e.Pool.exn_class Pool.Persistent.worker_killed_class

let pp ppf f =
  match f with
  | Timeout | Memout -> Format.pp_print_string ppf (name f)
  | Crash { exn_class; message; _ } ->
      Format.fprintf ppf "crash:%s (%s)" exn_class message

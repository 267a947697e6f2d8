module J = Fpgasat_obs.Json
module Sat = Fpgasat_sat

let request_schema = "fpgasat.req/1"
let response_schema = "fpgasat.resp/1"

type op = Route | Min_width | Ping | Stats | Shutdown | Sleep of float

let op_name = function
  | Route -> "route"
  | Min_width -> "min_width"
  | Ping -> "ping"
  | Stats -> "stats"
  | Shutdown -> "shutdown"
  | Sleep _ -> "sleep"

type request = {
  id : string option;
  op : op;
  benchmark : string;
  width : int;
  strategy : string option;
  max_conflicts : int option;
  max_seconds : float option;
  max_memory_mb : int option;
  deadline_ms : int option;
  certify : bool;
  telemetry : bool;
  fault : string option;
}

let request ?id ?strategy ?max_conflicts ?max_seconds ?max_memory_mb
    ?deadline_ms ?(certify = false) ?(telemetry = false) ?fault
    ?(benchmark = "") ?(width = 0) op =
  {
    id;
    op;
    benchmark;
    width;
    strategy;
    max_conflicts;
    max_seconds;
    max_memory_mb;
    deadline_ms;
    certify;
    telemetry;
    fault;
  }

(* The ops a client may retry blind: re-running them cannot change server
   state beyond counters, so a response lost to a connection reset is safe
   to re-ask for. [shutdown] is a state change and [sleep] occupies a
   worker per call — retrying those amplifies the very overload the retry
   is reacting to. *)
let idempotent = function
  | Route | Min_width | Ping | Stats -> true
  | Shutdown | Sleep _ -> false

let budget_of_request r =
  {
    Sat.Solver.no_budget with
    Sat.Solver.max_conflicts = r.max_conflicts;
    max_seconds = r.max_seconds;
    max_memory_mb = r.max_memory_mb;
  }

(* A stable textual identity of the budget, part of the answer-cache key:
   two requests with different budgets must not share a cached answer (a
   timeout under a small budget says nothing about a larger one). The
   deadline is deliberately absent: it only ever shrinks the effective
   budget, and a decisive answer is decisive whatever deadline it beat —
   fragmenting the cache per deadline would throw hits away. *)
let budget_signature r =
  let num f = function None -> "-" | Some v -> f v in
  Printf.sprintf "c%s,s%s,m%s"
    (num string_of_int r.max_conflicts)
    (num (Printf.sprintf "%h") r.max_seconds)
    (num string_of_int r.max_memory_mb)

let opt_field name f = function None -> [] | Some v -> [ (name, f v) ]

let request_to_json r =
  J.Obj
    ([ ("schema", J.String request_schema) ]
    @ opt_field "id" (fun s -> J.String s) r.id
    @ [ ("op", J.String (op_name r.op)) ]
    @ (match r.op with
      | Sleep s -> [ ("seconds", J.Float s) ]
      | _ -> [])
    @ (if r.benchmark = "" then []
       else [ ("benchmark", J.String r.benchmark) ])
    @ (if r.width = 0 then [] else [ ("width", J.Int r.width) ])
    @ opt_field "strategy" (fun s -> J.String s) r.strategy
    @ opt_field "max_conflicts" (fun n -> J.Int n) r.max_conflicts
    @ opt_field "max_seconds" (fun f -> J.Float f) r.max_seconds
    @ opt_field "max_memory_mb" (fun n -> J.Int n) r.max_memory_mb
    @ opt_field "deadline_ms" (fun n -> J.Int n) r.deadline_ms
    @ (if r.certify then [ ("certify", J.Bool true) ] else [])
    @ (if r.telemetry then [ ("telemetry", J.Bool true) ] else [])
    @ opt_field "fault" (fun s -> J.String s) r.fault)

let find_string j key =
  match J.find j key with Some (J.String s) -> Some s | _ -> None

let find_int j key =
  match J.find j key with Some (J.Int n) -> Some n | _ -> None

let find_float j key =
  match J.find j key with
  | Some (J.Float f) -> Some f
  | Some (J.Int n) -> Some (float_of_int n)
  | _ -> None

let find_bool j key =
  match J.find j key with Some (J.Bool b) -> Some b | _ -> None

let request_of_json j =
  let ( let* ) = Result.bind in
  let* () =
    match find_string j "schema" with
    | Some s when s = request_schema -> Ok ()
    | Some s -> Error (Printf.sprintf "unsupported request schema %S" s)
    | None -> Error "missing \"schema\""
  in
  let* op =
    match find_string j "op" with
    | Some "route" -> Ok Route
    | Some "min_width" -> Ok Min_width
    | Some "ping" -> Ok Ping
    | Some "stats" -> Ok Stats
    | Some "shutdown" -> Ok Shutdown
    | Some "sleep" ->
        Ok (Sleep (Option.value (find_float j "seconds") ~default:0.))
    | Some other -> Error (Printf.sprintf "unknown op %S" other)
    | None -> Error "missing \"op\""
  in
  let benchmark = Option.value (find_string j "benchmark") ~default:"" in
  let width = Option.value (find_int j "width") ~default:0 in
  let* () =
    match op with
    | Route when benchmark = "" -> Error "op \"route\" needs a \"benchmark\""
    | Route when width < 1 -> Error "op \"route\" needs \"width\" >= 1"
    | Min_width when benchmark = "" ->
        Error "op \"min_width\" needs a \"benchmark\""
    | _ -> Ok ()
  in
  Ok
    {
      id = find_string j "id";
      op;
      benchmark;
      width;
      strategy = find_string j "strategy";
      max_conflicts = find_int j "max_conflicts";
      max_seconds = find_float j "max_seconds";
      max_memory_mb = find_int j "max_memory_mb";
      deadline_ms = find_int j "deadline_ms";
      certify = Option.value (find_bool j "certify") ~default:false;
      telemetry = Option.value (find_bool j "telemetry") ~default:false;
      fault = find_string j "fault";
    }

let parse_request line =
  match J.of_string line with
  | Error m -> Error ("malformed JSON: " ^ m)
  | Ok j -> request_of_json j

type served_by = Cache | Warm | Cold

let served_by_name = function Cache -> "cache" | Warm -> "warm" | Cold -> "cold"

type status = Done | Failed | Overloaded | Shutting_down | Deadline_exceeded

let status_name = function
  | Done -> "ok"
  | Failed -> "error"
  | Overloaded -> "overloaded"
  | Shutting_down -> "shutting_down"
  | Deadline_exceeded -> "deadline_exceeded"

type response = {
  resp_id : string option;
  status : status;
  served_by : served_by option;
  run : J.t option;  (** An [fpgasat.run/1] record object. *)
  min_width : int option;
  payload : J.t option;  (** Op-specific extra (stats, pong). *)
  message : string option;  (** Present exactly when [status] is Failed. *)
}

let response ?id ?served_by ?run ?min_width ?payload ?message status =
  {
    resp_id = id;
    status;
    served_by;
    run;
    min_width;
    payload;
    message;
  }

let response_to_json r =
  J.Obj
    ([ ("schema", J.String response_schema) ]
    @ opt_field "id" (fun s -> J.String s) r.resp_id
    @ [ ("status", J.String (status_name r.status)) ]
    @ opt_field "served_by" (fun s -> J.String (served_by_name s)) r.served_by
    @ opt_field "run" Fun.id r.run
    @ opt_field "min_width" (fun n -> J.Int n) r.min_width
    @ opt_field "payload" Fun.id r.payload
    @ opt_field "error" (fun s -> J.String s) r.message)

(* [run] is the last field an [ok] route response carries, so its bytes
   are those of the response without it, with the record spliced in
   before the closing brace. *)
let route_ok_line ?id ~served_by run_text =
  let head = J.to_string (response_to_json (response ?id ~served_by Done)) in
  String.concat ""
    [ String.sub head 0 (String.length head - 1); {|,"run":|}; run_text; "}" ]

let response_of_json j =
  let ( let* ) = Result.bind in
  let* () =
    match find_string j "schema" with
    | Some s when s = response_schema -> Ok ()
    | Some s -> Error (Printf.sprintf "unsupported response schema %S" s)
    | None -> Error "missing \"schema\""
  in
  let* status =
    match find_string j "status" with
    | Some "ok" -> Ok Done
    | Some "error" -> Ok Failed
    | Some "overloaded" -> Ok Overloaded
    | Some "shutting_down" -> Ok Shutting_down
    | Some "deadline_exceeded" -> Ok Deadline_exceeded
    | Some other -> Error (Printf.sprintf "unknown status %S" other)
    | None -> Error "missing \"status\""
  in
  let* served_by =
    match find_string j "served_by" with
    | Some "cache" -> Ok (Some Cache)
    | Some "warm" -> Ok (Some Warm)
    | Some "cold" -> Ok (Some Cold)
    | Some other -> Error (Printf.sprintf "unknown served_by %S" other)
    | None -> Ok None
  in
  Ok
    {
      resp_id = find_string j "id";
      status;
      served_by;
      run = J.find j "run";
      min_width = find_int j "min_width";
      payload = J.find j "payload";
      message = find_string j "error";
    }

let parse_response line =
  match J.of_string line with
  | Error m -> Error ("malformed JSON: " ^ m)
  | Ok j -> response_of_json j

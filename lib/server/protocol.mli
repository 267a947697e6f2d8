(** The solve server's wire protocol: line-delimited JSON over a Unix
    socket.

    One request per line, one response per line, both single-line compact
    JSON ({!Fpgasat_obs.Json}). The solve payload of a successful [route]
    response {e is} an [fpgasat.run/1] record object — the same schema the
    sweep engine writes to JSONL files ({!Fpgasat_engine.Run_record}) — so
    a client can pipe served runs straight into the existing tables and
    resume tooling.

    Request ([fpgasat.req/1]):
    {v
    {"schema":"fpgasat.req/1","id":"r1","op":"route","benchmark":"alu2",
     "width":4,"strategy":"ITE-linear-2+muldirect/s1@siege",
     "max_conflicts":n?,"max_seconds":f?,"max_memory_mb":n?,
     "deadline_ms":n?,"certify":true?,"telemetry":true?,"fault":"kind"?}
    v}

    Response ([fpgasat.resp/1]):
    {v
    {"schema":"fpgasat.resp/1","id":"r1",
     "status":"ok|error|overloaded|shutting_down|deadline_exceeded",
     "served_by":"cache|warm|cold"?,"run":{fpgasat.run/1}?,
     "min_width":n?,"payload":{}?,"error":"msg"?}
    v} *)

val request_schema : string
(** ["fpgasat.req/1"]. *)

val response_schema : string
(** ["fpgasat.resp/1"]. *)

type op =
  | Route  (** Width query on a benchmark; needs [benchmark] and [width]. *)
  | Min_width  (** Minimal width of a benchmark; needs [benchmark]. *)
  | Ping
  | Stats  (** Server counters as the response [payload]. *)
  | Shutdown  (** Ask the server to drain and exit. *)
  | Sleep of float
      (** Occupy one worker for the given seconds — a deterministic load
          generator for overload and drain tests. Rejected unless the
          server was started with [test_ops]. *)

val op_name : op -> string

type request = {
  id : string option;  (** Echoed back verbatim in the response. *)
  op : op;
  benchmark : string;  (** [""] for ops that take none. *)
  width : int;  (** [0] for ops that take none. *)
  strategy : string option;
      (** {!Fpgasat_core.Strategy.of_name} form; server default when
          absent. Malformed or out-of-registry names are a protocol
          [error], never a crash ({!Fpgasat_encodings.Registry.of_name}). *)
  max_conflicts : int option;
  max_seconds : float option;
  max_memory_mb : int option;
      (** Per-request budget; the server caps each field with its own
          configured ceilings. *)
  deadline_ms : int option;
      (** Total time the client is willing to wait, measured from the
          moment the server receives the line. The server subtracts queue
          wait before solving and maps the remainder onto the solver's
          wall-clock budget; a request whose deadline passed while queued
          is shed with a [deadline_exceeded] response instead of running.
          Not part of the cache key (it only shrinks the budget; a
          decisive answer is decisive whatever deadline it beat). *)
  certify : bool;
      (** Independently check the answer. The warm session certifies
          widths below its maximum clique (the clique, checked against the
          global route) and from the fewest colours it has seen up (the
          stored colouring, checked against the architecture). A
          certified width in the gap
          between them takes the cold {!Fpgasat_core.Flow.submit} path,
          since a per-query UNSAT under selector assumptions is not a
          standalone DRAT refutation. *)
  telemetry : bool;
  fault : string option;
      (** Chaos injection ({!Fpgasat_engine.Chaos.Server.fault_name}
          kinds); only honoured when the server runs with [test_ops],
          a protocol [error] otherwise. *)
}

val request :
  ?id:string ->
  ?strategy:string ->
  ?max_conflicts:int ->
  ?max_seconds:float ->
  ?max_memory_mb:int ->
  ?deadline_ms:int ->
  ?certify:bool ->
  ?telemetry:bool ->
  ?fault:string ->
  ?benchmark:string ->
  ?width:int ->
  op ->
  request

val idempotent : op -> bool
(** The ops a client may retry blind ([route], [min_width], [ping],
    [stats]): re-running them cannot change server state beyond counters.
    [shutdown] and [sleep] are not. {!Client.call_with_retry} refuses to
    retry non-idempotent requests. *)

val budget_of_request : request -> Fpgasat_sat.Solver.budget
val budget_signature : request -> string
(** Stable textual identity of the request budget — part of the
    answer-cache key, because a timeout under one budget says nothing
    about another. *)

val request_to_json : request -> Fpgasat_obs.Json.t
val request_of_json : Fpgasat_obs.Json.t -> (request, string) result
val parse_request : string -> (request, string) result
(** One line → request. *)

type served_by =
  | Cache  (** Answered from the LRU answer cache; no solver ran. *)
  | Warm
      (** Answered by a warm session: by its incremental ladder, or
          without a solver from its stored clique or best colouring. *)
  | Cold  (** Full {!Fpgasat_core.Flow.submit} pipeline. *)

val served_by_name : served_by -> string

type status =
  | Done
  | Failed  (** Protocol or execution error; see [message]. *)
  | Overloaded  (** Admission control rejected the request: backlog full. *)
  | Shutting_down  (** Drain has begun; no new work is admitted. *)
  | Deadline_exceeded
      (** The request's [deadline_ms] passed before a solver could start
          (shed from the queue) or the deadline-capped budget ran out
          mid-solve. No answer is implied — retry with a larger deadline
          if the answer still matters. *)

val status_name : status -> string

type response = {
  resp_id : string option;
  status : status;
  served_by : served_by option;
  run : Fpgasat_obs.Json.t option;  (** An [fpgasat.run/1] record object. *)
  min_width : int option;
  payload : Fpgasat_obs.Json.t option;
  message : string option;
}

val response :
  ?id:string ->
  ?served_by:served_by ->
  ?run:Fpgasat_obs.Json.t ->
  ?min_width:int ->
  ?payload:Fpgasat_obs.Json.t ->
  ?message:string ->
  status ->
  response

val response_to_json : response -> Fpgasat_obs.Json.t

val route_ok_line : ?id:string -> served_by:served_by -> string -> string
(** [route_ok_line ?id ~served_by text] is the [ok] route response line
    for the run record whose {!Fpgasat_obs.Json.to_string} is [text]:
    byte-identical to
    [Json.to_string (response_to_json (response ?id ~served_by ~run Done))],
    without rendering the record again. The server stores answers as
    such text and writes every [ok] route response with this. *)

val response_of_json : Fpgasat_obs.Json.t -> (response, string) result
val parse_response : string -> (response, string) result

module Sat = Fpgasat_sat
module Obs = Fpgasat_obs
module Json = Obs.Json
module C = Fpgasat_core

type outcome =
  | Routable
  | Unroutable
  | Timeout
  | Memout
  | Crashed of string

type t = {
  benchmark : string;
  strategy : string;
  width : int;
  outcome : outcome;
  timings : C.Flow.timings;
  wall_seconds : float;
  cnf_vars : int;
  cnf_clauses : int;
  stats : Sat.Stats.t;
  certified : bool option;
  telemetry : Obs.Telemetry.t option;
  attempts : int option;
  failure : string option;
  backtrace : string option;
  quarantined : bool;
}

let schema_version = "fpgasat.run/1"

let make_key ~benchmark ~strategy ~width =
  Printf.sprintf "%s|%s|%d" benchmark strategy width

let key r = make_key ~benchmark:r.benchmark ~strategy:r.strategy ~width:r.width

let outcome_name = function
  | Routable -> "routable"
  | Unroutable -> "unroutable"
  | Timeout -> "timeout"
  | Memout -> "memout"
  | Crashed _ -> "crashed"

let decisive r =
  match r.outcome with
  | Routable | Unroutable -> true
  | Timeout | Memout | Crashed _ -> false

let total_seconds r = C.Flow.total r.timings

(* [?strategy] overrides the name taken from the run: when a retry ladder
   answers a cell with a fallback preset, the record must still carry the
   cell's own strategy so its resume key stays stable. *)
let of_run ?strategy ?attempts ?failure ?(quarantined = false) ~benchmark
    ~wall_seconds (run : C.Flow.run) =
  {
    benchmark;
    strategy =
      (match strategy with
      | Some s -> s
      | None -> C.Strategy.name run.C.Flow.strategy);
    width = run.C.Flow.width;
    outcome =
      (match run.C.Flow.outcome with
      | C.Flow.Routable _ -> Routable
      | C.Flow.Unroutable -> Unroutable
      | C.Flow.Timeout -> Timeout
      | C.Flow.Memout -> Memout);
    timings = run.C.Flow.timings;
    wall_seconds;
    cnf_vars = run.C.Flow.cnf_vars;
    cnf_clauses = run.C.Flow.cnf_clauses;
    stats = run.C.Flow.solver_stats;
    certified = run.C.Flow.certified;
    telemetry = run.C.Flow.telemetry;
    attempts;
    failure;
    quarantined;
    backtrace = None;
  }

let crashed ?attempts ?failure ?backtrace ?(quarantined = false) ~benchmark
    ~strategy ~width ~wall_seconds msg =
  {
    benchmark;
    strategy;
    width;
    outcome = Crashed msg;
    timings = { C.Flow.to_graph = 0.; to_cnf = 0.; solving = 0. };
    wall_seconds;
    cnf_vars = 0;
    cnf_clauses = 0;
    stats = Sat.Stats.create ();
    certified = None;
    telemetry = None;
    attempts;
    failure;
    backtrace;
    quarantined;
  }

(* ---------- JSON ---------- *)

let to_json r =
  let crash =
    match r.outcome with Crashed m -> [ ("crash", Json.String m) ] | _ -> []
  in
  (* the key is absent (not null) when certification was not requested, so
     records from older sweeps and uncertified runs stay byte-identical *)
  let certified =
    match r.certified with
    | Some b -> [ ("certified", Json.Bool b) ]
    | None -> []
  in
  (* like "certified", the supervisor keys are absent unless set, so records
     from single-attempt sweeps stay byte-identical to older ones *)
  let attempts =
    match r.attempts with
    | Some n -> [ ("attempts", Json.Int n) ]
    | None -> []
  in
  let failure =
    match r.failure with
    | Some f -> [ ("failure", Json.String f) ]
    | None -> []
  in
  let backtrace =
    match r.backtrace with
    | Some b -> [ ("backtrace", Json.String b) ]
    | None -> []
  in
  let quarantined =
    if r.quarantined then [ ("quarantined", Json.Bool true) ] else []
  in
  (* optional like the others: absent unless the sweep asked for telemetry,
     so pre-telemetry consumers and byte-diff-based tooling see identical
     lines *)
  let telemetry =
    match r.telemetry with
    | Some t -> [ ("telemetry", Obs.Telemetry.to_json t) ]
    | None -> []
  in
  Json.Obj
    ([
       ("schema", Json.String schema_version);
       ("benchmark", Json.String r.benchmark);
       ("strategy", Json.String r.strategy);
       ("width", Json.Int r.width);
       ("outcome", Json.String (outcome_name r.outcome));
     ]
    @ crash @ certified @ attempts @ failure @ backtrace @ quarantined
    @ telemetry
    @ [
        ( "timings",
          Json.Obj
            [
              ("to_graph", Json.Float r.timings.C.Flow.to_graph);
              ("to_cnf", Json.Float r.timings.C.Flow.to_cnf);
              ("solving", Json.Float r.timings.C.Flow.solving);
            ] );
        ("wall_seconds", Json.Float r.wall_seconds);
        ( "cnf",
          Json.Obj
            [ ("vars", Json.Int r.cnf_vars); ("clauses", Json.Int r.cnf_clauses) ]
        );
        ( "solver",
          Json.Obj
            [
              ("decisions", Json.Int r.stats.Sat.Stats.decisions);
              ("propagations", Json.Int r.stats.Sat.Stats.propagations);
              ("conflicts", Json.Int r.stats.Sat.Stats.conflicts);
              ("restarts", Json.Int r.stats.Sat.Stats.restarts);
              ("learnt_clauses", Json.Int r.stats.Sat.Stats.learnt_clauses);
              ("learnt_literals", Json.Int r.stats.Sat.Stats.learnt_literals);
              ("deleted_clauses", Json.Int r.stats.Sat.Stats.deleted_clauses);
              ( "max_decision_level",
                Json.Int r.stats.Sat.Stats.max_decision_level );
            ] );
      ])

let of_json json =
  let ( let* ) = Result.bind in
  let get obj key =
    match Json.find obj key with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing key %S" key)
  in
  let str obj key =
    let* v = get obj key in
    match v with
    | Json.String s -> Ok s
    | _ -> Error (Printf.sprintf "key %S is not a string" key)
  in
  let int obj key =
    let* v = get obj key in
    match v with
    | Json.Int i -> Ok i
    | _ -> Error (Printf.sprintf "key %S is not an integer" key)
  in
  let num obj key =
    let* v = get obj key in
    match v with
    | Json.Float f -> Ok f
    | Json.Int i -> Ok (float_of_int i)
    | _ -> Error (Printf.sprintf "key %S is not a number" key)
  in
  let* schema = str json "schema" in
  if schema <> schema_version then
    Error (Printf.sprintf "unsupported schema %S (want %S)" schema schema_version)
  else
    let* benchmark = str json "benchmark" in
    let* strategy = str json "strategy" in
    let* width = int json "width" in
    let* outcome_tag = str json "outcome" in
    let* outcome =
      match outcome_tag with
      | "routable" -> Ok Routable
      | "unroutable" -> Ok Unroutable
      | "timeout" -> Ok Timeout
      | "memout" -> Ok Memout
      | "crashed" ->
          let* msg = str json "crash" in
          Ok (Crashed msg)
      | other -> Error (Printf.sprintf "unknown outcome %S" other)
    in
    let* certified =
      match Json.find json "certified" with
      | None -> Ok None
      | Some (Json.Bool b) -> Ok (Some b)
      | Some _ -> Error "key \"certified\" is not a boolean"
    in
    let* attempts =
      match Json.find json "attempts" with
      | None -> Ok None
      | Some (Json.Int n) -> Ok (Some n)
      | Some _ -> Error "key \"attempts\" is not an integer"
    in
    let* failure =
      match Json.find json "failure" with
      | None -> Ok None
      | Some (Json.String s) -> Ok (Some s)
      | Some _ -> Error "key \"failure\" is not a string"
    in
    let* backtrace =
      match Json.find json "backtrace" with
      | None -> Ok None
      | Some (Json.String s) -> Ok (Some s)
      | Some _ -> Error "key \"backtrace\" is not a string"
    in
    let* quarantined =
      match Json.find json "quarantined" with
      | None -> Ok false
      | Some (Json.Bool b) -> Ok b
      | Some _ -> Error "key \"quarantined\" is not a boolean"
    in
    let* telemetry =
      match Json.find json "telemetry" with
      | None -> Ok None
      | Some t -> Result.map Option.some (Obs.Telemetry.of_json t)
    in
    let* timings = get json "timings" in
    let* to_graph = num timings "to_graph" in
    let* to_cnf = num timings "to_cnf" in
    let* solving = num timings "solving" in
    let* wall_seconds = num json "wall_seconds" in
    let* cnf = get json "cnf" in
    let* cnf_vars = int cnf "vars" in
    let* cnf_clauses = int cnf "clauses" in
    let* solver = get json "solver" in
    let* decisions = int solver "decisions" in
    let* propagations = int solver "propagations" in
    let* conflicts = int solver "conflicts" in
    let* restarts = int solver "restarts" in
    let* learnt_clauses = int solver "learnt_clauses" in
    let* learnt_literals = int solver "learnt_literals" in
    let* deleted_clauses = int solver "deleted_clauses" in
    let* max_decision_level = int solver "max_decision_level" in
    let stats = Sat.Stats.create () in
    stats.Sat.Stats.decisions <- decisions;
    stats.Sat.Stats.propagations <- propagations;
    stats.Sat.Stats.conflicts <- conflicts;
    stats.Sat.Stats.restarts <- restarts;
    stats.Sat.Stats.learnt_clauses <- learnt_clauses;
    stats.Sat.Stats.learnt_literals <- learnt_literals;
    stats.Sat.Stats.deleted_clauses <- deleted_clauses;
    stats.Sat.Stats.max_decision_level <- max_decision_level;
    Ok
      {
        benchmark;
        strategy;
        width;
        outcome;
        timings = { C.Flow.to_graph; to_cnf; solving };
        wall_seconds;
        cnf_vars;
        cnf_clauses;
        stats;
        certified;
        telemetry;
        attempts;
        failure;
        backtrace;
        quarantined;
      }

let to_line r = Json.to_string (to_json r)

let of_line line =
  match Json.of_string (String.trim line) with
  | Error m -> Error ("invalid JSON: " ^ m)
  | Ok json -> of_json json

let equal a b =
  let feq x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  let stats_eq (x : Sat.Stats.t) (y : Sat.Stats.t) =
    x.Sat.Stats.decisions = y.Sat.Stats.decisions
    && x.Sat.Stats.propagations = y.Sat.Stats.propagations
    && x.Sat.Stats.conflicts = y.Sat.Stats.conflicts
    && x.Sat.Stats.restarts = y.Sat.Stats.restarts
    && x.Sat.Stats.learnt_clauses = y.Sat.Stats.learnt_clauses
    && x.Sat.Stats.learnt_literals = y.Sat.Stats.learnt_literals
    && x.Sat.Stats.deleted_clauses = y.Sat.Stats.deleted_clauses
    && x.Sat.Stats.max_decision_level = y.Sat.Stats.max_decision_level
  in
  String.equal a.benchmark b.benchmark
  && String.equal a.strategy b.strategy
  && a.width = b.width
  && (match (a.outcome, b.outcome) with
     | Routable, Routable
     | Unroutable, Unroutable
     | Timeout, Timeout
     | Memout, Memout ->
         true
     | Crashed x, Crashed y -> String.equal x y
     | (Routable | Unroutable | Timeout | Memout | Crashed _), _ -> false)
  && feq a.timings.C.Flow.to_graph b.timings.C.Flow.to_graph
  && feq a.timings.C.Flow.to_cnf b.timings.C.Flow.to_cnf
  && feq a.timings.C.Flow.solving b.timings.C.Flow.solving
  && feq a.wall_seconds b.wall_seconds
  && a.cnf_vars = b.cnf_vars
  && a.cnf_clauses = b.cnf_clauses
  && stats_eq a.stats b.stats
  && Option.equal Bool.equal a.certified b.certified
  && Option.equal Obs.Telemetry.equal a.telemetry b.telemetry
  && Option.equal Int.equal a.attempts b.attempts
  && Option.equal String.equal a.failure b.failure
  && Option.equal String.equal a.backtrace b.backtrace
  && Bool.equal a.quarantined b.quarantined

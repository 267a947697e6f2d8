module J = Fpgasat_obs.Json
module Sat = Fpgasat_sat
module F = Fpgasat_fpga
module C = Fpgasat_core
module Eng = Fpgasat_engine
module P = Protocol

type config = {
  socket_path : string;
  workers : int;
  queue_capacity : int;
  cache_capacity : int;
  max_sessions : int;
  max_seconds : float option;
  max_memory_mb : int option;
  cache_file : string option;
  test_ops : bool;
}

let default_config ~socket_path =
  {
    socket_path;
    workers = 2;
    queue_capacity = 16;
    cache_capacity = 256;
    max_sessions = 16;
    max_seconds = None;
    max_memory_mb = None;
    cache_file = None;
    test_ops = false;
  }

(* A request whose worker dies this many times is quarantined: later
   attempts get an error without touching the pool, so one poisoned input
   cannot eat the whole restart budget. *)
let quarantine_threshold = 2

type counters = {
  requests : int Atomic.t;
  cache_hits : int Atomic.t;
  warm : int Atomic.t;
  cold : int Atomic.t;
  overloaded : int Atomic.t;
  errors : int Atomic.t;
  deadline_exceeded : int Atomic.t;
  quarantined : int Atomic.t;
}

type session_slot = { session : Session.t; mutable last_use : int }

type t = {
  config : config;
  listener : Unix.file_descr;
  pool : Eng.Pool.Persistent.t;
  (* each answer's fpgasat.run/1 record as [J.to_string] renders it, once *)
  cache : string Answer_cache.t;
  sessions : (string, session_slot) Hashtbl.t;
  sessions_mutex : Mutex.t;
  mutable session_tick : int;
  (* structural-hash -> worker deaths attributed to requests on that CNF *)
  poison : (string, int) Hashtbl.t;
  poison_mutex : Mutex.t;
  counters : counters;
  stop_requested : bool Atomic.t;
  drained : bool Atomic.t;
  mutable accept_thread : Thread.t option;
  conns_mutex : Mutex.t;
  mutable conns : (Thread.t * Unix.file_descr) list;
}

(* ---------- session management ---------- *)

let session_key benchmark strategy =
  benchmark ^ "|" ^ C.Strategy.name strategy

let evict_lru_session server =
  let victim =
    Hashtbl.fold
      (fun key slot acc ->
        match acc with
        | Some (_, best) when best <= slot.last_use -> acc
        | _ -> Some (key, slot.last_use))
      server.sessions None
  in
  match victim with
  | Some (key, _) -> Hashtbl.remove server.sessions key
  | None -> ()

(* The live session under [key], its recency refreshed. Called with the
   map mutex held. *)
let touch_session server key =
  server.session_tick <- server.session_tick + 1;
  match Hashtbl.find_opt server.sessions key with
  | Some slot ->
      slot.last_use <- server.session_tick;
      Some slot.session
  | None -> None

let live_session server ~benchmark strategy =
  Mutex.protect server.sessions_mutex (fun () ->
      touch_session server (session_key benchmark strategy))

(* Creation happens under the map mutex: the encode cost is paid once per
   (benchmark × strategy) even when identical first requests race, at the
   price of serialising distinct first-time encodes. *)
let get_session server ~benchmark strategy =
  match F.Benchmarks.find benchmark with
  | None -> Error (Printf.sprintf "unknown benchmark %S" benchmark)
  | Some spec ->
      Mutex.protect server.sessions_mutex (fun () ->
          let key = session_key benchmark strategy in
          match touch_session server key with
          | Some session -> Ok session
          | None ->
              let session =
                Session.create ~benchmark strategy (F.Benchmarks.build spec)
              in
              if Hashtbl.length server.sessions >= server.config.max_sessions
              then evict_lru_session server;
              Hashtbl.replace server.sessions key
                { session; last_use = server.session_tick };
              Ok session)

(* ---------- quarantine ---------- *)

(* The structural-hash prefix of a session cache key — the identity the
   poison table is keyed on. One CNF crashing workers under one width must
   also quarantine it at other widths: the crash is in the content, not
   the query. *)
let structural_hash_of_key key =
  match String.index_opt key '|' with
  | Some i -> String.sub key 0 i
  | None -> key

let poison_count server hash =
  Mutex.lock server.poison_mutex;
  let n = Option.value (Hashtbl.find_opt server.poison hash) ~default:0 in
  Mutex.unlock server.poison_mutex;
  n

let record_poison server hash =
  Mutex.lock server.poison_mutex;
  let n = 1 + Option.value (Hashtbl.find_opt server.poison hash) ~default:0 in
  Hashtbl.replace server.poison hash n;
  Mutex.unlock server.poison_mutex

let quarantined_count server =
  Mutex.lock server.poison_mutex;
  let n =
    Hashtbl.fold
      (fun _ deaths acc ->
        if deaths >= quarantine_threshold then acc + 1 else acc)
      server.poison 0
  in
  Mutex.unlock server.poison_mutex;
  n

(* ---------- deadlines ---------- *)

(* [deadline_ms] is total client patience measured from [arrival] (the
   moment the conn thread read the line). By the time a worker picks the
   request up, queue wait has eaten part of it; the remainder caps the
   solver's wall-clock budget. *)
let deadline_remaining (req : P.request) ~arrival =
  match req.P.deadline_ms with
  | None -> None
  | Some ms ->
      Some (float_of_int ms /. 1000. -. (Unix.gettimeofday () -. arrival))

let shed_expired server (req : P.request) ~arrival =
  match deadline_remaining req ~arrival with
  | Some r when r <= 0. ->
      Atomic.incr server.counters.deadline_exceeded;
      Some
        (P.response ?id:req.P.id
           ~message:"deadline passed while the request was queued"
           P.Deadline_exceeded)
  | _ -> None

let cap_budget config budget =
  let cap current limit ~smaller =
    match (current, limit) with
    | _, None -> current
    | None, Some l -> Some l
    | Some c, Some l -> Some (if smaller c l then c else l)
  in
  {
    budget with
    Sat.Solver.max_seconds =
      cap budget.Sat.Solver.max_seconds config.max_seconds ~smaller:( < );
    max_memory_mb =
      cap budget.Sat.Solver.max_memory_mb config.max_memory_mb ~smaller:( < );
  }

let effective_budget server (req : P.request) ~arrival =
  let budget = cap_budget server.config (P.budget_of_request req) in
  match deadline_remaining req ~arrival with
  | None -> budget
  | Some remaining ->
      let remaining = Float.max remaining 0.001 in
      {
        budget with
        Sat.Solver.max_seconds =
          (match budget.Sat.Solver.max_seconds with
          | None -> Some remaining
          | Some s -> Some (Float.min s remaining));
      }

let strategy_of_request (req : P.request) =
  match req.P.strategy with
  | None -> Ok C.Strategy.best_single
  | Some name -> C.Strategy.of_name name

let render response = J.to_string (P.response_to_json response)

(* ---------- width requests ---------- *)

(* A width request's identity on its session: the answer-cache key, and
   the structural hash that quarantine charges worker deaths to. *)
type target = { session : Session.t; key : string; hash : string }

let target (req : P.request) session ~width ~certify =
  let key =
    Session.cache_key session ~width ~budget_signature:(P.budget_signature req)
      ~certify
  in
  { session; key; hash = structural_hash_of_key key }

(* The checks every width request passes, in this order, before the cache
   or a solver sees it: quarantine refusal, the [kill_worker] test fault
   and deadline shedding. [Some line] is the request's answer. *)
let screen server (req : P.request) target ~arrival ~kill_worker =
  let deaths = poison_count server target.hash in
  if deaths >= quarantine_threshold then begin
    Atomic.incr server.counters.quarantined;
    Some
      (render
         (P.response ?id:req.P.id
            ~message:
              (Printf.sprintf
                 "quarantined: requests on this problem killed %d workers"
                 deaths)
            P.Failed))
  end
  else begin
    if kill_worker then raise Eng.Pool.Persistent.Worker_killed;
    Option.map render (shed_expired server req ~arrival)
  end

let serve_hit server (req : P.request) text =
  Atomic.incr server.counters.cache_hits;
  P.route_ok_line ?id:req.P.id ~served_by:P.Cache text

(* ---------- request execution (runs on a pool worker) ---------- *)

(* The admission path both width ops share on a worker: the session and
   the target (unless the conn thread already found them, as [known]),
   then {!screen}. Only an admitted request reaches [serve target].

   [suspect] is the per-request channel from worker to conn thread: the
   worker writes the request's structural hash before anything can crash,
   so when the ticket comes back as a worker death the conn thread knows
   which content to blame. The ticket's own mutex orders the write before
   the read. *)
let admit server (req : P.request) strategy ?known ~arrival ~suspect
    ~kill_worker ~width ~certify serve =
  let found =
    match known with
    | Some target -> Ok target
    | None ->
        get_session server ~benchmark:req.P.benchmark strategy
        |> Result.map (fun session -> target req session ~width ~certify)
  in
  match found with
  | Error m -> render (P.response ?id:req.P.id ~message:m P.Failed)
  | Ok target -> (
      suspect := Some target.hash;
      match screen server req target ~arrival ~kill_worker with
      | Some line -> line
      | None -> serve target)

let run_route server (req : P.request) strategy ?known ~arrival ~suspect
    ~kill_worker () =
  let t0 = Unix.gettimeofday () in
  admit server req strategy ?known ~arrival ~suspect ~kill_worker
    ~width:req.P.width ~certify:req.P.certify (fun { session; key; _ } ->
      (* A request the conn thread found in a live session has had its
         counted lookup; the look after the queue is for a twin request
         answered meanwhile. *)
      let cached =
        if Option.is_none known then Answer_cache.find server.cache key
        else Answer_cache.recheck server.cache key
      in
      match cached with
      | Some text -> serve_hit server req text
      | None ->
          let budget = effective_budget server req ~arrival in
          let run, served_by =
            let lower, _ = Session.bounds session in
            if
              req.P.certify && lower <= req.P.width
              && req.P.width < Session.fewest_colors session
            then begin
              (* in the gap between the clique and the session's fewest
                 colours the answer may be unroutable, and a warm
                 refutation holds only under selector assumptions: a
                 standalone one needs the cold pipeline. Below the gap the
                 stored clique certifies the refutation warm; above it the
                 session's best colouring routes and certifies it warm. *)
              Atomic.incr server.counters.cold;
              let request =
                C.Flow.(
                  default_request |> with_strategy strategy
                  |> with_budget budget |> with_certify true
                  |> with_telemetry req.P.telemetry)
              in
              ( C.Flow.submit request (Session.route session)
                  ~width:req.P.width,
                P.Cold )
            end
            else begin
              Atomic.incr server.counters.warm;
              ( Session.route_warm ~budget ~telemetry:req.P.telemetry
                  ~certify:req.P.certify session ~width:req.P.width,
                P.Warm )
            end
          in
          let wall_seconds = Unix.gettimeofday () -. t0 in
          let text =
            J.to_string
              (Eng.Run_record.to_json
                 (Eng.Run_record.of_run ~benchmark:req.P.benchmark
                    ~wall_seconds run))
          in
          (* only decisive answers are cacheable: a timeout says nothing
             about a retry *)
          if C.Flow.decisive run.C.Flow.outcome then
            Answer_cache.add server.cache key text;
          P.route_ok_line ?id:req.P.id ~served_by text)

let run_min_width server (req : P.request) strategy ~arrival ~suspect
    ~kill_worker () =
  admit server req strategy ~arrival ~suspect ~kill_worker ~width:0
    ~certify:false (fun { session; _ } ->
      let budget = effective_budget server req ~arrival in
      Atomic.incr server.counters.warm;
      render
        (match Session.min_width ~budget session with
        | Ok w -> P.response ?id:req.P.id ~served_by:P.Warm ~min_width:w P.Done
        | Error m -> P.response ?id:req.P.id ~message:m P.Failed))

(* ---------- server stats ---------- *)

let stats_json server =
  let queued, running = Eng.Pool.Persistent.backlog server.pool in
  let hits, misses, evictions = Answer_cache.stats server.cache in
  Mutex.lock server.sessions_mutex;
  let sessions = Hashtbl.length server.sessions in
  Mutex.unlock server.sessions_mutex;
  J.Obj
    [
      ("requests", J.Int (Atomic.get server.counters.requests));
      ("cache_hits", J.Int (Atomic.get server.counters.cache_hits));
      ("warm", J.Int (Atomic.get server.counters.warm));
      ("cold", J.Int (Atomic.get server.counters.cold));
      ("overloaded", J.Int (Atomic.get server.counters.overloaded));
      ("errors", J.Int (Atomic.get server.counters.errors));
      ( "deadline_exceeded",
        J.Int (Atomic.get server.counters.deadline_exceeded) );
      ("quarantined", J.Int (Atomic.get server.counters.quarantined));
      ("poisoned_hashes", J.Int (quarantined_count server));
      ("sessions", J.Int sessions);
      ("cache_entries", J.Int (Answer_cache.length server.cache));
      ("cache", J.Obj
         [
           ("hits", J.Int hits);
           ("misses", J.Int misses);
           ("evictions", J.Int evictions);
           ("replayed", J.Int (Answer_cache.replayed server.cache));
           ("torn", J.Int (Answer_cache.torn server.cache));
           ( "journal",
             J.Bool (Answer_cache.journal_path server.cache <> None) );
         ]);
      ("pool", J.Obj
         [
           ("workers", J.Int (Eng.Pool.Persistent.workers server.pool));
           ("queued", J.Int queued);
           ("running", J.Int running);
           ("deaths", J.Int (Eng.Pool.Persistent.deaths server.pool));
           ("respawns", J.Int (Eng.Pool.Persistent.respawns server.pool));
           ( "restart_budget",
             J.Int (Eng.Pool.Persistent.restart_budget server.pool) );
         ]);
    ]

(* ---------- stop machinery ---------- *)

(* Wake the accept loop with a throwaway self-connection so it re-checks
   the stop flag without waiting for a real client. *)
let wake server =
  match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception _ -> ()
  | fd ->
      (try Unix.connect fd (Unix.ADDR_UNIX server.config.socket_path)
       with _ -> ());
      (try Unix.close fd with _ -> ())

let request_stop server =
  if not (Atomic.exchange server.stop_requested true) then wake server

let stop_requested server = Atomic.get server.stop_requested

(* ---------- per-request dispatch (connection thread) ---------- *)

let submit_pooled server thunk ~id ~suspect =
  match Eng.Pool.Persistent.submit server.pool thunk with
  | Eng.Pool.Persistent.Rejected ->
      Atomic.incr server.counters.overloaded;
      render (P.response ?id ~message:"request queue is full" P.Overloaded)
  | Eng.Pool.Persistent.Stopped ->
      render (P.response ?id ~message:"server is draining" P.Shutting_down)
  | Eng.Pool.Persistent.Accepted ticket -> (
      match Eng.Pool.Persistent.wait ticket with
      | Ok line -> line
      | Error e when Eng.Failure.error_is_worker_death e ->
          Atomic.incr server.counters.errors;
          (match !suspect with
          | Some hash -> record_poison server hash
          | None -> ());
          render
            (P.response ?id
               ~message:
                 "worker died executing this request; it has been recorded \
                  against the problem's quarantine budget"
               P.Failed)
      | Error e ->
          Atomic.incr server.counters.errors;
          render
            (P.response ?id
               ~message:
                 (Printf.sprintf "%s: %s" e.Eng.Pool.exn_class e.message)
               P.Failed))

(* A route request on a live session is screened here, and a cache hit
   is answered here: no queue, no worker. A miss carries its target to
   the worker; a request whose session is not built yet, and a
   [worker_kill] fault, take the whole admission path on the pool. *)
let route server (req : P.request) strategy ~arrival ~suspect ~kill_worker =
  let pooled ?known () =
    submit_pooled server ~id:req.P.id ~suspect
      (run_route server req strategy ?known ~arrival ~suspect ~kill_worker)
  in
  match
    if kill_worker then None
    else live_session server ~benchmark:req.P.benchmark strategy
  with
  | None -> pooled ()
  | Some session -> (
      let known =
        target req session ~width:req.P.width ~certify:req.P.certify
      in
      match screen server req known ~arrival ~kill_worker:false with
      | Some line -> line
      | None -> (
          match Answer_cache.find server.cache known.key with
          | Some text -> serve_hit server req text
          | None -> pooled ~known ()))

(* The [fault] field, honoured only under --test-ops. Conn-thread faults
   (journal tear, self-SIGKILL) happen here; [Worker_kill] is threaded into
   the solve thunk so the death happens on a worker domain mid-request. *)
let resolve_fault server (req : P.request) =
  match req.P.fault with
  | None -> Ok false
  | Some _ when not server.config.test_ops ->
      Error "fault injection requires --test-ops"
  | Some name -> (
      match Eng.Chaos.Server.of_name name with
      | None -> Error (Printf.sprintf "unknown fault %S" name)
      | Some Eng.Chaos.Server.Worker_kill -> Ok true
      | Some Eng.Chaos.Server.Torn_journal ->
          (* the journal fd is O_APPEND, so journaling continues cleanly
             at the truncated end — exactly the state a kill mid-append
             leaves behind *)
          (match Answer_cache.journal_path server.cache with
          | Some path -> Eng.Chaos.Server.tear_journal path
          | None -> ());
          Ok false
      | Some Eng.Chaos.Server.Kill_server ->
          (* the real thing, not an exit: no drain, no unlink, no flush
             beyond what the journal already forced *)
          Unix.kill (Unix.getpid ()) Sys.sigkill;
          Ok false
      | Some Eng.Chaos.Server.Slow_client ->
          (* inflicted from the client side; nothing to do in-server *)
          Ok false)

let handle_request server line =
  Atomic.incr server.counters.requests;
  let arrival = Unix.gettimeofday () in
  let fail ?id m =
    Atomic.incr server.counters.errors;
    render (P.response ?id ~message:m P.Failed)
  in
  match P.parse_request line with
  | Error m -> fail m
  | Ok req -> (
      let id = req.P.id in
      match resolve_fault server req with
      | Error m -> fail ?id m
      | Ok kill_worker -> (
          match req.P.op with
          | P.Ping ->
              render
                (P.response ?id ~payload:(J.Obj [ ("pong", J.Bool true) ]) P.Done)
          | P.Stats ->
              render (P.response ?id ~payload:(stats_json server) P.Done)
          | P.Shutdown ->
              request_stop server;
              render (P.response ?id P.Done)
          | P.Sleep seconds when server.config.test_ops ->
              let suspect = ref None in
              submit_pooled server ~id ~suspect (fun () ->
                  if kill_worker then raise Eng.Pool.Persistent.Worker_killed;
                  Unix.sleepf (Float.max 0. seconds);
                  render (P.response ?id P.Done))
          | P.Sleep _ -> fail ?id "op \"sleep\" requires --test-ops"
          | P.Route | P.Min_width -> (
              match strategy_of_request req with
              | Error m -> fail ?id ("bad strategy: " ^ m)
              | Ok strategy -> (
                  let suspect = ref None in
                  match req.P.op with
                  | P.Route ->
                      route server req strategy ~arrival ~suspect ~kill_worker
                  | _ ->
                      submit_pooled server ~id ~suspect
                        (run_min_width server req strategy ~arrival ~suspect
                           ~kill_worker)))))

(* ---------- connection handling ---------- *)

let unregister_conn server fd =
  Mutex.lock server.conns_mutex;
  server.conns <- List.filter (fun (_, f) -> f != fd) server.conns;
  Mutex.unlock server.conns_mutex

(* The longest request line read, newline excluded. Real requests are a
   few hundred bytes; without a cap, a stream that never sends a newline
   would be buffered whole. *)
let max_request_line = 1 lsl 20

(* A connection's request lines, read straight from the socket so that a
   line is never buffered past [max_request_line]. *)
type reader = {
  fd : Unix.file_descr;
  chunk : Bytes.t;
  mutable pos : int;  (* chunk.[pos .. len) is read but not yet consumed *)
  mutable len : int;
  partial : Buffer.t;  (* the start of a line that spans reads *)
}

let reader fd =
  {
    fd;
    chunk = Bytes.create 65536;
    pos = 0;
    len = 0;
    partial = Buffer.create 256;
  }

let rec refill r =
  match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
  | n ->
      r.pos <- 0;
      r.len <- n;
      n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> refill r
  | exception Unix.Unix_error _ -> 0

let take_partial r =
  let line = Buffer.contents r.partial in
  Buffer.reset r.partial;
  line

(* The next line without its newline; an unterminated last line counts,
   as with [input_line]. [`Too_long] as soon as a line passes
   [max_request_line] bytes, without reading the rest of it. *)
let rec next_line r =
  let rec newline i =
    if i >= r.len then None
    else if Bytes.get r.chunk i = '\n' then Some i
    else newline (i + 1)
  in
  match newline r.pos with
  | Some i ->
      let n = i - r.pos in
      if Buffer.length r.partial + n > max_request_line then `Too_long
      else begin
        Buffer.add_subbytes r.partial r.chunk r.pos n;
        r.pos <- i + 1;
        `Line (take_partial r)
      end
  | None ->
      Buffer.add_subbytes r.partial r.chunk r.pos (r.len - r.pos);
      r.pos <- r.len;
      if Buffer.length r.partial > max_request_line then `Too_long
      else if refill r > 0 then next_line r
      else if Buffer.length r.partial > 0 then `Line (take_partial r)
      else `Eof

let send fd line =
  let s = line ^ "\n" in
  let rec go off =
    if off < String.length s then
      match Unix.single_write_substring fd s off (String.length s - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let handle_conn server fd =
  let input = reader fd in
  let rec loop () =
    match next_line input with
    | `Eof -> ()
    | `Too_long ->
        Atomic.incr server.counters.requests;
        Atomic.incr server.counters.errors;
        (* the rest of the line is never read: the connection ends here *)
        (try
           send fd
             (render
                (P.response
                   ~message:
                     (Printf.sprintf "request line longer than %d bytes"
                        max_request_line)
                   P.Failed))
         with Unix.Unix_error _ -> ())
    | `Line line when String.trim line = "" -> loop ()
    | `Line line -> (
        match send fd (handle_request server line) with
        | () -> if not (stop_requested server) then loop ()
        (* the client hung up before its answer: only this connection
           ends *)
        | exception Unix.Unix_error _ -> ())
  in
  Fun.protect
    ~finally:(fun () ->
      unregister_conn server fd;
      try Unix.close fd with _ -> ())
    loop

let accept_loop server () =
  let rec loop () =
    if not (stop_requested server) then
      match Unix.accept server.listener with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error (_, _, _) when stop_requested server -> ()
      | fd, _ ->
          if stop_requested server then (
            (try Unix.close fd with _ -> ()))
          else begin
            let th = Thread.create (handle_conn server) fd in
            Mutex.lock server.conns_mutex;
            server.conns <- (th, fd) :: server.conns;
            Mutex.unlock server.conns_mutex;
            loop ()
          end
  in
  loop ()

(* ---------- lifecycle ---------- *)

(* A leftover socket file can mean two very different things: a live
   server (binding over it would silently steal its clients) or the
   residue of a SIGKILL'd predecessor (refusing to bind would make every
   crash need manual cleanup). A connect probe tells them apart: a live
   listener accepts, a dead one's socket answers ECONNREFUSED. Only the
   dead case is unlinked; anything else — a live server, a foreign
   non-socket file — is an error, never a removal. *)
let reclaim_socket path =
  match (Unix.stat path).Unix.st_kind with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | Unix.S_SOCK -> (
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let probe =
        match Unix.connect fd (Unix.ADDR_UNIX path) with
        | () -> `Live
        | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> `Stale
        | exception Unix.Unix_error (Unix.ENOENT, _, _) -> `Gone
        | exception Unix.Unix_error (e, _, _) -> `Error e
      in
      (try Unix.close fd with _ -> ());
      match probe with
      | `Live ->
          failwith
            (Printf.sprintf "a server is already listening on %s" path)
      | `Stale ->
          (try Unix.unlink path with Unix.Unix_error _ -> ())
      | `Gone -> ()
      | `Error e ->
          failwith
            (Printf.sprintf "cannot probe socket %s: %s" path
               (Unix.error_message e)))
  | _ ->
      failwith
        (Printf.sprintf "%s exists and is not a socket; refusing to remove it"
           path)

(* The journal keeps each line as the run object plus [cache_key], so
   the stored text is parsed back for it. The text came from
   [J.to_string], so the parse cannot fail, and rendering a replayed line
   gives the text the answer was first served with. *)
let run_of_text text =
  match J.of_string text with
  | Ok run -> run
  | Error m -> invalid_arg ("Server.run_of_text: " ^ m)

let start config =
  (* A client that hangs up before its answer must cost its connection
     only: the write fails with EPIPE instead of killing the process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Journal first: an un-attachable cache file (locked by a live server,
     unwritable path) must fail before we own the socket. *)
  let cache = Answer_cache.create ~capacity:config.cache_capacity () in
  (match config.cache_file with
  | None -> ()
  | Some path -> (
      match
        Answer_cache.attach_journal cache ~path ~to_json:run_of_text
          ~of_json:(fun run -> Some (J.to_string run))
      with
      | Ok _replayed -> ()
      | Error m -> failwith (Printf.sprintf "cache journal %s: %s" path m)));
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (match reclaim_socket config.socket_path with
  | () -> ()
  | exception e ->
      (try Unix.close listener with _ -> ());
      Answer_cache.detach_journal cache;
      raise e);
  Unix.bind listener (Unix.ADDR_UNIX config.socket_path);
  Unix.listen listener 64;
  let server =
    {
      config;
      listener;
      pool =
        Eng.Pool.Persistent.create ~workers:config.workers
          ~queue_capacity:config.queue_capacity ();
      cache;
      sessions = Hashtbl.create 16;
      sessions_mutex = Mutex.create ();
      session_tick = 0;
      poison = Hashtbl.create 8;
      poison_mutex = Mutex.create ();
      counters =
        {
          requests = Atomic.make 0;
          cache_hits = Atomic.make 0;
          warm = Atomic.make 0;
          cold = Atomic.make 0;
          overloaded = Atomic.make 0;
          errors = Atomic.make 0;
          deadline_exceeded = Atomic.make 0;
          quarantined = Atomic.make 0;
        };
      stop_requested = Atomic.make false;
      drained = Atomic.make false;
      accept_thread = None;
      conns_mutex = Mutex.create ();
      conns = [];
    }
  in
  server.accept_thread <- Some (Thread.create (accept_loop server) ());
  server

let replayed server = Answer_cache.replayed server.cache

let stop server =
  request_stop server;
  if not (Atomic.exchange server.drained true) then begin
    (* 1. no new connections *)
    (match server.accept_thread with
    | Some th ->
        Thread.join th;
        server.accept_thread <- None
    | None -> ());
    (try Unix.close server.listener with _ -> ());
    (* 2. unblock idle connection threads (EOF on their next read); ones
       mid-request finish writing their response first *)
    Mutex.lock server.conns_mutex;
    let conns = server.conns in
    Mutex.unlock server.conns_mutex;
    List.iter
      (fun (_, fd) ->
        try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with _ -> ())
      conns;
    List.iter (fun (th, _) -> Thread.join th) conns;
    (* 3. drain the worker pool: every accepted job finishes, every worker
       domain is joined — no orphans *)
    Eng.Pool.Persistent.shutdown server.pool;
    (* 4. only now is the journal quiescent *)
    Answer_cache.detach_journal server.cache;
    (try Unix.unlink server.config.socket_path with Unix.Unix_error _ -> ())
  end

let socket_path server = server.config.socket_path

let run config =
  let server = start config in
  let handler _ = request_stop server in
  let previous_term = Sys.signal Sys.sigterm (Sys.Signal_handle handler) in
  let previous_int = Sys.signal Sys.sigint (Sys.Signal_handle handler) in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigterm previous_term;
      Sys.set_signal Sys.sigint previous_int)
    (fun () ->
      while not (stop_requested server) do
        Thread.delay 0.05
      done;
      stop server)

module J = Fpgasat_obs.Json
module Obs = Fpgasat_obs
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
  cache : J.t Answer_cache.t;
  sessions : (string, session_slot) Hashtbl.t;
  sessions_mutex : Mutex.t;
  mutable session_tick : int;
  (* structural-hash -> worker deaths attributed to requests on that CNF *)
  poison : (string, int) Hashtbl.t;
  poison_mutex : Mutex.t;
  trace : Obs.Trace.t;
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

(* Creation happens under the map mutex: the encode cost is paid once per
   (benchmark × strategy) even when identical first requests race, at the
   price of serialising distinct first-time encodes. *)
let get_session server ~benchmark strategy =
  match F.Benchmarks.find benchmark with
  | None -> Error (Printf.sprintf "unknown benchmark %S" benchmark)
  | Some spec ->
      Mutex.lock server.sessions_mutex;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock server.sessions_mutex)
        (fun () ->
          let key = session_key benchmark strategy in
          server.session_tick <- server.session_tick + 1;
          match Hashtbl.find_opt server.sessions key with
          | Some slot ->
              slot.last_use <- server.session_tick;
              Ok slot.session
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

let record_json ~benchmark ~wall_seconds run =
  Eng.Run_record.to_json
    (Eng.Run_record.of_run ~benchmark ~wall_seconds run)

(* ---------- request execution (runs on a pool worker) ---------- *)

(* The admission path both width ops share: session lookup, the request's
   cache key, quarantine refusal, the [kill_worker] test fault and deadline
   shedding. Only an admitted request reaches [serve session key].

   [suspect] is the per-request channel from worker to conn thread: the
   worker writes the request's structural hash before anything can crash,
   so when the ticket comes back as a worker death the conn thread knows
   which content to blame. The ticket's own mutex orders the write before
   the read. *)
let admit server (req : P.request) strategy ~arrival ~suspect ~kill_worker
    ~width ~certify serve =
  match get_session server ~benchmark:req.P.benchmark strategy with
  | Error m -> P.response ?id:req.P.id ~message:m P.Failed
  | Ok session -> (
      let key =
        Session.cache_key session ~width
          ~budget_signature:(P.budget_signature req) ~certify
      in
      let hash = structural_hash_of_key key in
      suspect := Some hash;
      if poison_count server hash >= quarantine_threshold then begin
        Atomic.incr server.counters.quarantined;
        P.response ?id:req.P.id
          ~message:
            (Printf.sprintf
               "quarantined: requests on this problem killed %d workers"
               (poison_count server hash))
          P.Failed
      end
      else begin
        if kill_worker then raise Eng.Pool.Persistent.Worker_killed;
        match shed_expired server req ~arrival with
        | Some shed -> shed
        | None -> serve session key
      end)

let run_route server (req : P.request) strategy ~arrival ~suspect ~kill_worker
    =
  let t0 = Unix.gettimeofday () in
  admit server req strategy ~arrival ~suspect ~kill_worker ~width:req.P.width
    ~certify:req.P.certify (fun session key ->
      match Answer_cache.find server.cache key with
      | Some run ->
          Atomic.incr server.counters.cache_hits;
          P.response ?id:req.P.id ~served_by:P.Cache ~run P.Done
      | None ->
          let budget = effective_budget server req ~arrival in
          Obs.Trace.record server.trace Obs.Trace.Solve_begin req.P.width 0;
          let run, served_by =
            if req.P.certify then begin
              (* a warm UNSAT is relative to selector assumptions — not a
                 standalone refutation — so certified answers take the full
                 cold pipeline *)
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
              ( Session.route_warm ~budget ~telemetry:req.P.telemetry session
                  ~width:req.P.width,
                P.Warm )
            end
          in
          Obs.Trace.record server.trace Obs.Trace.Solve_end req.P.width
            (if C.Flow.decisive run.C.Flow.outcome then 1 else 0);
          let wall_seconds = Unix.gettimeofday () -. t0 in
          let json = record_json ~benchmark:req.P.benchmark ~wall_seconds run in
          (* only decisive answers are cacheable: a timeout says nothing
             about a retry *)
          if C.Flow.decisive run.C.Flow.outcome then
            Answer_cache.add server.cache key json;
          P.response ?id:req.P.id ~served_by ~run:json P.Done)

let run_min_width server (req : P.request) strategy ~arrival ~suspect
    ~kill_worker =
  admit server req strategy ~arrival ~suspect ~kill_worker ~width:0
    ~certify:false (fun session _key ->
      let budget = effective_budget server req ~arrival in
      Atomic.incr server.counters.warm;
      match Session.min_width ~budget session with
      | Ok w -> P.response ?id:req.P.id ~served_by:P.Warm ~min_width:w P.Done
      | Error m -> P.response ?id:req.P.id ~message:m P.Failed)

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
      ("trace_events", J.Int (Obs.Trace.total server.trace));
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
      P.response ?id ~message:"request queue is full" P.Overloaded
  | Eng.Pool.Persistent.Stopped ->
      P.response ?id ~message:"server is draining" P.Shutting_down
  | Eng.Pool.Persistent.Accepted ticket -> (
      match Eng.Pool.Persistent.wait ticket with
      | Ok response -> response
      | Error e when Eng.Failure.error_is_worker_death e ->
          Atomic.incr server.counters.errors;
          (match !suspect with
          | Some hash -> record_poison server hash
          | None -> ());
          P.response ?id
            ~message:
              "worker died executing this request; it has been recorded \
               against the problem's quarantine budget"
            P.Failed
      | Error e ->
          Atomic.incr server.counters.errors;
          P.response ?id
            ~message:(Printf.sprintf "%s: %s" e.Eng.Pool.exn_class e.message)
            P.Failed)

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
  let response =
    match P.parse_request line with
    | Error m ->
        Atomic.incr server.counters.errors;
        P.response ~message:m P.Failed
    | Ok req -> (
        let id = req.P.id in
        match resolve_fault server req with
        | Error m ->
            Atomic.incr server.counters.errors;
            P.response ?id ~message:m P.Failed
        | Ok kill_worker -> (
            match req.P.op with
            | P.Ping ->
                P.response ?id
                  ~payload:(J.Obj [ ("pong", J.Bool true) ])
                  P.Done
            | P.Stats -> P.response ?id ~payload:(stats_json server) P.Done
            | P.Shutdown ->
                request_stop server;
                P.response ?id P.Done
            | P.Sleep seconds when server.config.test_ops ->
                let suspect = ref None in
                submit_pooled server ~id ~suspect (fun () ->
                    if kill_worker then
                      raise Eng.Pool.Persistent.Worker_killed;
                    Unix.sleepf (Float.max 0. seconds);
                    P.response ?id P.Done)
            | P.Sleep _ ->
                Atomic.incr server.counters.errors;
                P.response ?id ~message:"op \"sleep\" requires --test-ops"
                  P.Failed
            | P.Route | P.Min_width -> (
                match strategy_of_request req with
                | Error m ->
                    Atomic.incr server.counters.errors;
                    P.response ?id ~message:("bad strategy: " ^ m) P.Failed
                | Ok strategy ->
                    let suspect = ref None in
                    submit_pooled server ~id ~suspect (fun () ->
                        match req.P.op with
                        | P.Route ->
                            run_route server req strategy ~arrival ~suspect
                              ~kill_worker
                        | _ ->
                            run_min_width server req strategy ~arrival
                              ~suspect ~kill_worker))))
  in
  J.to_string (P.response_to_json response)

(* ---------- connection handling ---------- *)

let unregister_conn server fd =
  Mutex.lock server.conns_mutex;
  server.conns <- List.filter (fun (_, f) -> f != fd) server.conns;
  Mutex.unlock server.conns_mutex

let handle_conn server fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let rec loop () =
    match input_line ic with
    | exception (End_of_file | Sys_error _) -> ()
    | line when String.trim line = "" -> loop ()
    | line ->
        let reply = handle_request server line in
        (match
           output_string oc reply;
           output_char oc '\n';
           flush oc
         with
        | () -> ()
        | exception Sys_error _ -> ());
        if not (stop_requested server) then loop ()
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

let start config =
  (* Journal first: an un-attachable cache file (locked by a live server,
     unwritable path) must fail before we own the socket. *)
  let cache = Answer_cache.create ~capacity:config.cache_capacity () in
  (match config.cache_file with
  | None -> ()
  | Some path -> (
      match
        Answer_cache.attach_journal cache ~path ~to_json:Fun.id
          ~of_json:Option.some
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
      trace = Obs.Trace.create ();
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

let trace server = server.trace
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

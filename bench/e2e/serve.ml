(* The two served workloads: the shipped [fpgasat serve] binary on a Unix
   socket, driven by client threads with one connection each, every client
   waiting for its answer before asking again (a closed loop).

   - serve-repeat: two clients send a Zipf (s = 1.1) stream of uncertified
     route requests over 8 benchmarks x 3 strategies x 3 widths from the
     DSATUR bound up. Those widths are answered from the session's greedy
     colouring, so the first ask of each question runs no solver and every
     later ask is a cache hit: protocol, dispatch, cache reads and JSON
     carry the cost. (Widths from w_min up would make first asks real
     searches — up to 3.5 s each on C880 — whose cost depends on the order
     the seed picks.) The two clients never ask the same question, so the
     cache-hit pattern does not depend on how their requests interleave.
   - serve-explore: one client walks 8 scripts, one per benchmark, under
     the paper's best strategy (ITE-linear-2+muldirect/s1) — min_width,
     route at w_min+2 .. w_min-1, certified route at w_min and w_min-1 —
     in an order the seed shuffles. No question repeats, so the cache
     never hits and every answer is a journaled insert; the time is the
     warm ladder plus cold certified solves with DRAT checking. One
     client, because its requests run for up to seconds: with a second
     one the server would never be idle for the speed probes ({!Speed})
     that make the run's times comparable.

   The traced run replays each client's stream in-process and must see the
   same answers and the same cache hits. *)

module J = Fpgasat_obs.Json
module F = Fpgasat_fpga
module C = Fpgasat_core
module Eng = Fpgasat_engine
module Srv = Fpgasat_server
module P = Srv.Protocol
module Vec = Metric.Vec

let now = Env.now

(* ---------- the server process ---------- *)

type server = { pid : int; sdir : string; socket : string; mutable stopped : bool }

let stop_server s =
  if not s.stopped then begin
    s.stopped <- true;
    Env.terminate s.pid;
    Env.rm_rf s.sdir
  end

let servers_started = ref 0

let read_log s =
  try In_channel.with_open_bin (Filename.concat s.sdir "server.log") In_channel.input_all
  with Sys_error _ -> ""

let start_server env =
  incr servers_started;
  let sdir = Filename.concat env.Env.dir (Printf.sprintf "srv%d" !servers_started) in
  Env.mkdir_p sdir;
  let socket = Filename.concat sdir "s.sock" in
  let log =
    Unix.openfile (Filename.concat sdir "server.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log)
      (fun () ->
        Env.spawn ~stdout:log ~stderr:log (Env.server_exe ())
          [
            "serve"; "--socket"; socket; "--workers"; "2"; "--queue"; "16"; "--sessions"; "32";
            "--cache"; "4096"; "--cache-file"; Filename.concat sdir "journal.jsonl";
          ])
  in
  let s = { pid; sdir; socket; stopped = false } in
  let deadline = now () +. 30. in
  let rec wait_ready () =
    match Env.waitpid_noeintr [ Unix.WNOHANG ] pid with
    | p, _ when p = pid ->
        Env.forget pid;
        s.stopped <- true;
        failwith ("server exited during start-up: " ^ read_log s)
    | _ -> (
        match Srv.Client.one_shot ~timeout:5. ~socket (P.request P.Ping) with
        | Ok { P.status = P.Done; _ } -> ()
        | _ when now () < deadline ->
            Unix.sleepf 0.005;
            wait_ready ()
        | _ -> failwith "server did not answer a ping within 30 s")
  in
  (try wait_ready ()
   with e ->
     stop_server s;
     raise e);
  s

let call_exn conn req =
  match Srv.Client.call conn req with
  | Ok r when r.P.status = P.Done -> r
  | Ok r -> failwith ("request failed: " ^ Option.value r.P.message ~default:(P.status_name r.P.status))
  | Error m -> failwith m

let stats socket =
  match Srv.Client.one_shot ~timeout:30. ~socket (P.request P.Stats) with
  | Ok { P.payload = Some p; _ } -> p
  | _ -> failwith "stats request failed"

let stat p key = match J.find p key with Some (J.Int i) -> i | _ -> 0
let requests_seen p = stat p "requests"

let failures p =
  stat p "errors" + stat p "overloaded" + stat p "deadline_exceeded" + stat p "quarantined"

(* Runs [f c conn] for c < n, each on its own thread and connection, and
   [main] on this thread meanwhile; the first exception any client raised
   is re-raised. *)
let with_clients ?(main = ignore) socket n f =
  let conns =
    Array.init n (fun _ ->
        match Srv.Client.connect ~timeout:120. socket with Ok c -> c | Error m -> failwith m)
  in
  Fun.protect
    ~finally:(fun () -> Array.iter Srv.Client.close conns)
    (fun () ->
      let errors = Array.make n None in
      let threads =
        Array.mapi
          (fun c conn -> Thread.create (fun () -> try f c conn with e -> errors.(c) <- Some e) ())
          conns
      in
      main ();
      Array.iter Thread.join threads;
      Array.iter (function Some e -> raise e | None -> ()) errors)

(* Lets this thread hold the clients between requests, so the machine
   can be probed while no request is in flight. *)
module Gate = struct
  type t = { m : Mutex.t; c : Condition.t; mutable closed : bool; mutable waiting : int; mutable running : int }

  let create running = { m = Mutex.create (); c = Condition.create (); closed = false; waiting = 0; running }

  (* A client, before each request. *)
  let pass g =
    Mutex.lock g.m;
    while g.closed do
      g.waiting <- g.waiting + 1;
      Condition.broadcast g.c;
      Condition.wait g.c g.m;
      g.waiting <- g.waiting - 1
    done;
    Mutex.unlock g.m

  (* A client, when it is done. *)
  let leave g =
    Mutex.lock g.m;
    g.running <- g.running - 1;
    Condition.broadcast g.c;
    Mutex.unlock g.m

  let hold g f =
    Mutex.lock g.m;
    g.closed <- true;
    while g.waiting < g.running do
      Condition.wait g.c g.m
    done;
    Mutex.unlock g.m;
    Fun.protect
      ~finally:(fun () ->
        Mutex.lock g.m;
        g.closed <- false;
        Condition.broadcast g.c;
        Mutex.unlock g.m)
      f
end

(* ---------- questions and answers ---------- *)

type kind = Route | Certify | Min_width

type question = {
  bench : string;
  strategy : string;
  kind : kind;
  width : int;
  expect : int;  (** The right answer's {!answer_code}. *)
}

let kind_name = function Route -> "route" | Certify -> "certify" | Min_width -> "min_width"

let request q =
  match q.kind with
  | Route -> P.request ~benchmark:q.bench ~width:q.width ~strategy:q.strategy P.Route
  | Certify -> P.request ~benchmark:q.bench ~width:q.width ~strategy:q.strategy ~certify:true P.Route
  | Min_width -> P.request ~benchmark:q.bench ~strategy:q.strategy P.Min_width

(* An answer as one comparable int: 100 + w for a minimal width, else the
   outcome (1 routable, 2 unroutable, 3 timeout, 4 memout) plus 10 when
   the answer carried a checked certificate; 0 for no answer. *)
let answer_code (r : P.response) =
  match (r.P.status, r.P.min_width, r.P.run) with
  | P.Done, Some w, _ -> 100 + w
  | P.Done, None, Some run ->
      let base =
        match J.find run "outcome" with
        | Some (J.String "routable") -> 1
        | Some (J.String "unroutable") -> 2
        | Some (J.String "timeout") -> 3
        | Some (J.String "memout") -> 4
        | _ -> 0
      in
      if base > 0 && J.find run "certified" = Some (J.Bool true) then base + 10 else base
  | _ -> 0

let routable = 1
let unroutable = 2
let certified code = code + 10
let decided code = code = 1 || code = 2 || code = 11 || code = 12 || code >= 100

(* What one client asked and got, in order. *)
type log = { ids : int Vec.t; starts : float Vec.t; lat : float Vec.t; codes : int Vec.t; hits : bool Vec.t }

let new_log () =
  { ids = Vec.create 0; starts = Vec.create 0.; lat = Vec.create 0.; codes = Vec.create 0; hits = Vec.create false }

let ask conn log questions id =
  let t0 = now () in
  let reply = Srv.Client.call conn (request questions.(id)) in
  let dt = now () -. t0 in
  let code, hit =
    match reply with
    | Ok r -> (answer_code r, r.P.served_by = Some P.Cache)
    | Error _ -> (0, false)
  in
  Vec.push log.ids id;
  Vec.push log.starts t0;
  Vec.push log.lat dt;
  Vec.push log.codes code;
  Vec.push log.hits hit

(* ---------- the two workloads ---------- *)

(* What a client loop gets: the run's probe timeline, the gate its probes
   hold the clients at, and the end of the measurement window. *)
type drive = { timeline : Speed.t; gate : Gate.t; deadline : float }

type workload = {
  strategies : string list;
  clients : int;
  tail : float;  (** Highest percentile with at least 10 samples beyond it. *)
  questions : Env.t -> Expected.entry list -> question array;
  client : Env.t -> question array -> drive -> int -> Srv.Client.t -> log -> unit;
      (** Client [c]'s loop: [client env questions drive c conn log]. *)
  probe_every : float option;
      (** Hold the clients and probe this often (seconds), from the main
          thread; [None] when the clients probe themselves. *)
}

let benches env expected =
  if env.Env.smoke then List.filter (fun e -> List.mem e.Expected.name [ "alu2"; "too_large" ]) expected
  else expected

let repeat_strategies =
  [ "ITE-linear-2+muldirect/s1@siege"; "ITE-linear-2+direct/s1@siege"; "muldirect-3+muldirect/s1@siege" ]

let explore_strategies = [ "ITE-linear-2+muldirect/s1@siege" ]

let repeat_questions env expected =
  Array.of_list
    (List.concat_map
       (fun e ->
         List.concat_map
           (fun strategy ->
             List.init 3 (fun d ->
                 {
                   bench = e.Expected.name;
                   strategy;
                   kind = Route;
                   width = e.Expected.dsatur_bound + d;
                   expect = routable;
                 }))
           repeat_strategies)
       (benches env expected))

(* Zipf over ranks 1..n as a cumulative distribution. *)
let zipf_cdf n ~s =
  let w = Array.init n (fun k -> 1. /. (float_of_int (k + 1) ** s)) in
  let total = Metric.sum w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let sample cdf rng =
  let u = Random.State.float rng 1. in
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) < u then search (mid + 1) hi else search lo mid
  in
  search 0 (Array.length cdf - 1)

let smoke_requests_per_client = 150

(* Client c asks only questions i with i mod 2 = c, hottest first in a
   seeded rank order. *)
let repeat_client env questions d c conn log =
  let mine = List.filter (fun i -> i mod 2 = c) (List.init (Array.length questions) Fun.id) in
  let ranked = Array.of_list (Env.shuffle ~seed:env.Env.seed ~salt:(100 + c) mine) in
  let cdf = zipf_cdf (Array.length ranked) ~s:1.1 in
  let rng = Random.State.make [| env.Env.seed; 200 + c |] in
  let continue () =
    if env.Env.smoke then Vec.length log.ids < smoke_requests_per_client else now () < d.deadline
  in
  while continue () do
    Gate.pass d.gate;
    ask conn log questions ranked.(sample cdf rng)
  done

let explore_questions env expected =
  let script (e, strategy) =
    let w = e.Expected.w_min and bench = e.Expected.name in
    let q kind width expect = { bench; strategy; kind; width; expect } in
    [
      q Min_width 0 (100 + w);
      q Route (w + 2) routable;
      q Route (w + 1) routable;
      q Route w routable;
      q Route (w - 1) unroutable;
      q Certify w (certified routable);
      q Certify (w - 1) (certified unroutable);
    ]
  in
  let scripts =
    List.concat_map (fun e -> List.map (fun s -> (e, s)) explore_strategies) (benches env expected)
  in
  Array.of_list (List.concat_map script (Env.shuffle ~seed:env.Env.seed ~salt:0 scripts))

(* A probe before each request, while the server is idle. *)
let explore_client _env questions d _c conn log =
  Array.iteri
    (fun id _ ->
      Speed.sample d.timeline;
      ask conn log questions id)
    questions

let repeat =
  {
    strategies = repeat_strategies;
    clients = 2;
    tail = 0.99;
    questions = repeat_questions;
    client = repeat_client;
    probe_every = Some 0.5;
  }

let explore =
  {
    strategies = explore_strategies;
    clients = 1;
    tail = 0.8;
    questions = explore_questions;
    client = explore_client;
    probe_every = None;
  }

(* One session per benchmark x strategy, built by asking a width three
   above the DSATUR bound: answered from the greedy colouring, no solver,
   and a width no workload question uses. *)
let session_specs env w expected =
  List.concat_map (fun e -> List.map (fun s -> (e, s)) w.strategies) (benches env expected)

let build_sessions socket w specs =
  with_clients socket w.clients (fun c conn ->
      List.iteri
        (fun i ((e : Expected.entry), strategy) ->
          if i mod w.clients = c then
            ignore
              (call_exn conn
                 (P.request ~benchmark:e.Expected.name ~width:(e.Expected.dsatur_bound + 3) ~strategy P.Route)))
        specs)

(* ---------- in-process replay ---------- *)

(* The server's route and min_width paths, called directly: protocol
   parsing, session lookup, answer cache (journal attached) and the warm
   or cold pipeline, then the response line the client parses. With a
   recorder, each layer gets a span and cold answers go through
   {!Pipeline}; without one the calls are exactly the server's. *)
type replay = { sessions : (string * string, Srv.Session.t) Hashtbl.t; cache : J.t Srv.Answer_cache.t }

let replay_state specs ~journal setup_sp =
  let cache = Srv.Answer_cache.create ~capacity:4096 () in
  (match Srv.Answer_cache.attach_journal cache ~path:journal ~to_json:Fun.id ~of_json:Option.some with
  | Ok _ -> ()
  | Error m -> failwith ("replay journal: " ^ m));
  let instances = Hashtbl.create 8 in
  let sessions = Hashtbl.create 32 in
  List.iter
    (fun ((e : Expected.entry), name) ->
      let inst =
        match Hashtbl.find_opt instances e.Expected.name with
        | Some i -> i
        | None ->
            let i = F.Benchmarks.build (Option.get (F.Benchmarks.find e.Expected.name)) in
            Hashtbl.add instances e.Expected.name i;
            i
      in
      let strategy = Result.get_ok (C.Strategy.of_name name) in
      let session =
        Spans.span_opt setup_sp "core.session_prepare" (fun () ->
            Srv.Session.create ~benchmark:e.Expected.name strategy inst)
      in
      Hashtbl.replace sessions (e.Expected.name, C.Strategy.name strategy) session)
    specs;
  { sessions; cache }

let handle st sp line =
  let span name f = Spans.span_opt sp name f in
  let req =
    match span "server.parse" (fun () -> P.parse_request line) with
    | Ok r -> r
    | Error m -> failwith m
  in
  let session, key, cached =
    span "server.cache_lookup" (fun () ->
        let strategy = Result.get_ok (C.Strategy.of_name (Option.get req.P.strategy)) in
        let session = Hashtbl.find st.sessions (req.P.benchmark, C.Strategy.name strategy) in
        let route = req.P.op = P.Route in
        let key =
          Srv.Session.cache_key session
            ~width:(if route then req.P.width else 0)
            ~budget_signature:(P.budget_signature req) ~certify:(route && req.P.certify)
        in
        (session, key, if route then Srv.Answer_cache.find st.cache key else None))
  in
  let response, hit =
    match (req.P.op, cached) with
    | P.Min_width, _ -> (
        match span "core.min_width" (fun () -> Srv.Session.min_width session) with
        | Ok w -> (P.response ~served_by:P.Warm ~min_width:w P.Done, false)
        | Error m -> (P.response ~message:m P.Failed, false))
    | _, Some run -> (P.response ~served_by:P.Cache ~run P.Done, true)
    | _, None ->
        let t0 = now () in
        let run, served_by =
          if req.P.certify then
            let request =
              C.Flow.(default_request |> with_strategy (Srv.Session.strategy session) |> with_certify true)
            in
            let route = Srv.Session.route session in
            ( (match sp with
              | None -> C.Flow.submit request route ~width:req.P.width
              | Some sp -> Pipeline.submit sp request route ~width:req.P.width),
              P.Cold )
          else (span "core.warm_route" (fun () -> Srv.Session.route_warm session ~width:req.P.width), P.Warm)
        in
        (* a warm answer's solver work is its per-query delta; cold answers
           were counted by {!Pipeline} *)
        if not req.P.certify then begin
          let s = run.C.Flow.solver_stats in
          Spans.count_opt sp "sat.propagations" s.Fpgasat_sat.Stats.propagations;
          Spans.count_opt sp "sat.conflicts" s.Fpgasat_sat.Stats.conflicts;
          Spans.count_opt sp "sat.decisions" s.Fpgasat_sat.Stats.decisions
        end;
        let json =
          span "server.respond" (fun () ->
              Eng.Run_record.to_json
                (Eng.Run_record.of_run ~benchmark:req.P.benchmark ~wall_seconds:(now () -. t0) run))
        in
        if C.Flow.decisive run.C.Flow.outcome then
          span "server.cache_insert" (fun () -> Srv.Answer_cache.add st.cache key json);
        (P.response ~served_by ~run:json P.Done, false)
  in
  let line = span "server.respond" (fun () -> J.to_string (P.response_to_json response)) in
  match span "client.parse" (fun () -> P.parse_response line) with
  | Ok r -> (answer_code r, hit)
  | Error _ -> (0, hit)

(* Replays each client's recorded stream on a domain of its own, as the
   clients ran. Returns per-client logs and the wall time. *)
let replay st sps questions logs =
  let run c =
    let out = new_log () in
    Vec.iter
      (fun id ->
        let line = J.to_string (P.request_to_json (request questions.(id))) in
        let t0 = now () in
        let code, hit = Spans.query_opt sps.(c) (fun () -> handle st sps.(c) line) in
        Vec.push out.ids id;
        Vec.push out.starts t0;
        Vec.push out.lat (now () -. t0);
        Vec.push out.codes code;
        Vec.push out.hits hit)
      logs.(c).ids;
    out
  in
  let t0 = now () in
  let others = List.init (Array.length logs - 1) (fun c -> Domain.spawn (fun () -> run (c + 1))) in
  let first = run 0 in
  let out = Array.of_list (first :: List.map Domain.join others) in
  (out, now () -. t0)

(* ---------- the run ---------- *)

let all_of logs f = Array.concat (Array.to_list (Array.map (fun l -> Vec.to_array (f l)) logs))
let count_true xs = Array.fold_left (fun acc h -> if h then acc + 1 else acc) 0 xs

let same_answers a b =
  Array.for_all2
    (fun x y -> Vec.to_array x.codes = Vec.to_array y.codes && Vec.to_array x.hits = Vec.to_array y.hits)
    a b

let kind_p50 questions logs kind =
  let lat = all_of logs (fun l -> l.lat) and ids = all_of logs (fun l -> l.ids) in
  let xs = ref [] in
  Array.iteri (fun i id -> if questions.(id).kind = kind then xs := lat.(i) :: !xs) ids;
  (List.length !xs, 1000. *. Metric.median (Array.of_list !xs))

let run env w =
  let setup () =
    let expected = Expected.load (Env.expected_json ()) in
    let server = start_server env in
    (try build_sessions server.socket w (session_specs env w expected)
     with e ->
       stop_server server;
       raise e);
    (server, expected)
  in
  let (server, expected), setup_s = Env.timed_setup env ~setup ~teardown:(fun (s, _) -> stop_server s) in
  Fun.protect ~finally:(fun () -> stop_server server) @@ fun () ->
  let questions = w.questions env expected in
  let window = if env.Env.trace then env.Env.seconds /. 2. else env.Env.seconds in
  let before = stats server.socket in
  let logs = Array.init w.clients (fun _ -> new_log ()) in
  let d = { timeline = Speed.create (); gate = Gate.create w.clients; deadline = now () +. window } in
  let probes () =
    match w.probe_every with
    | Some every when not env.Env.smoke ->
        while now () +. every < d.deadline do
          Thread.delay every;
          Gate.hold d.gate (fun () -> Speed.sample d.timeline)
        done
    | _ -> ()
  in
  Speed.sample d.timeline;
  with_clients ~main:probes server.socket w.clients (fun c conn ->
      Fun.protect ~finally:(fun () -> Gate.leave d.gate) (fun () -> w.client env questions d c conn logs.(c)));
  Speed.sample d.timeline;
  let wall = Speed.raw_seconds d.timeline and reference = Speed.reference_seconds d.timeline in
  let after = stats server.socket in
  let rss = Metric.peak_rss_mb (string_of_int server.pid) in
  stop_server server;
  let lat = all_of logs (fun l -> l.lat) and codes = all_of logs (fun l -> l.codes) in
  let ids = all_of logs (fun l -> l.ids) in
  let scaled = Array.map2 (fun l t -> l *. Speed.factor_at d.timeline t) lat (all_of logs (fun l -> l.starts)) in
  let n = Array.length lat in
  let failed = Array.fold_left (fun acc c -> if c = 0 then acc + 1 else acc) 0 codes in
  let wrong = ref 0 and decisive = ref 0 in
  Array.iteri
    (fun i code ->
      if decided code then begin
        incr decisive;
        if code <> questions.(ids.(i)).expect then incr wrong
      end)
    codes;
  Printf.printf
    "%s: %d requests in %.2f s (%.2f reference s); %d cache hits; %d wrong, %d failed; raw p50 %.4f ms; \
     tail = p%.0f (%d samples beyond)\n"
    env.Env.workload n wall reference
    (count_true (all_of logs (fun l -> l.hits)))
    !wrong failed
    (1000. *. Metric.median lat)
    (100. *. w.tail)
    (int_of_float (float_of_int n *. (1. -. w.tail)));
  let kinds = List.map (fun k -> (k, kind_p50 questions logs k)) [ Route; Certify; Min_width ] in
  List.iter
    (fun (k, (count, p50)) ->
      if count > 0 then Printf.printf "  %-9s raw p50 %.4f ms over %d\n" (kind_name k) p50 count)
    kinds;
  let end_to_end =
    [
      ("setup_s", setup_s);
      ("throughput_qps", float_of_int n /. reference);
      ("latency_p50_ms", 1000. *. Metric.median scaled);
      ("latency_tail_ms", 1000. *. Metric.percentile scaled w.tail);
      ("decided_ratio", float_of_int !decisive /. float_of_int n);
      ("peak_rss_mb", rss);
    ]
  in
  let fidelity_ok, metrics =
    if not env.Env.trace then (true, end_to_end)
    else begin
      Metric.print_metrics env.Env.workload end_to_end;
      let specs = session_specs env w expected in
      let fresh name sp = replay_state specs ~journal:(Filename.concat env.Env.dir name) sp in
      let plain = fresh "replay-plain.jsonl" None in
      let plain_logs, plain_wall = replay plain (Array.make w.clients None) questions logs in
      Srv.Answer_cache.detach_journal plain.cache;
      let setup_sp = Spans.create ~tid:w.clients in
      let traced = fresh "replay-traced.jsonl" (Some setup_sp) in
      let sps = Array.init w.clients (fun c -> Spans.create ~tid:c) in
      let traced_logs, traced_wall = replay traced (Array.map Option.some sps) questions logs in
      Srv.Answer_cache.detach_journal traced.cache;
      let recorders = Array.to_list sps in
      (* the server counts the closing stats request too *)
      let seen = requests_seen after - requests_seen before - 1 in
      let checks =
        [
          ("untraced replay answers and cache hits equal the socket run's", same_answers logs plain_logs);
          ("traced replay answers and cache hits equal the socket run's", same_answers logs traced_logs);
          (Printf.sprintf "client sent %d requests, server counted %d" n seen, n = seen);
        ]
      in
      List.iter (fun (what, ok) -> if not ok then Printf.printf "FIDELITY: %s: no\n" what) checks;
      Spans.print_table stdout recorders;
      let path = Filename.concat Env.out_root ("trace-" ^ env.Env.workload ^ ".json") in
      Spans.write_chrome path (setup_sp :: recorders);
      Printf.printf "chrome trace: %s\n" path;
      let p50 logs = 1000. *. Metric.median (all_of logs (fun l -> l.lat)) in
      let kind_metric k = snd (List.assoc k kinds) in
      let extra =
        [
          ( "core.session_prepare_ms",
            1000. *. Spans.self_seconds [ setup_sp ] "core.session_prepare" /. float_of_int (List.length specs) );
          ("server.dispatch_ms", p50 logs -. p50 plain_logs);
          ( "server.cache_hit_ratio",
            float_of_int (count_true (all_of traced_logs (fun l -> l.hits))) /. float_of_int n );
          ("server.failed", float_of_int (failures after - failures before));
          ("client.route_p50_ms", kind_metric Route);
          ("client.certify_p50_ms", kind_metric Certify);
          ("client.min_width_p50_ms", kind_metric Min_width);
          ("obs.trace_overhead_ratio", traced_wall /. plain_wall);
        ]
      in
      (List.for_all snd checks, Spans.layer_metrics recorders ~extra)
    end
  in
  Metric.print_metrics env.Env.workload metrics;
  { Metric.correct = !wrong = 0 && fidelity_ok; attempted = n; failed; metrics }

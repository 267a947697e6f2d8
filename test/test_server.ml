(* Solve-server tests: the persistent worker pool's admission control and
   drain, the answer cache's LRU policy, the wire protocol's JSON
   round-trips, CNF structural hashing, warm-ladder vs cold-flow agreement,
   and an in-process server exercised over a real Unix socket by concurrent
   clients (cache hits, overload, graceful drain). *)

module Sat = Fpgasat_sat
module F = Fpgasat_fpga
module C = Fpgasat_core
module Eng = Fpgasat_engine
module J = Fpgasat_obs.Json
module Srv = Fpgasat_server
module P = Srv.Protocol

let strategy name =
  match C.Strategy.of_name name with Ok s -> s | Error m -> Alcotest.fail m

let alu2 = F.Benchmarks.build (Option.get (F.Benchmarks.find "alu2"))

(* ---------- Pool.Persistent: admission control and drain ---------- *)

let test_pool_runs_submissions () =
  let pool = Eng.Pool.Persistent.create ~workers:2 () in
  let tickets =
    List.init 8 (fun i ->
        match Eng.Pool.Persistent.submit pool (fun () -> i * i) with
        | Eng.Pool.Persistent.Accepted t -> t
        | Rejected | Stopped -> Alcotest.fail "idle pool refused work")
  in
  List.iteri
    (fun i t ->
      match Eng.Pool.Persistent.wait t with
      | Ok v -> Alcotest.(check int) "result" (i * i) v
      | Error e -> Alcotest.fail e.Eng.Pool.message)
    tickets;
  Eng.Pool.Persistent.shutdown pool;
  Alcotest.(check int) "no domains after shutdown" 0
    (Eng.Pool.Persistent.workers pool)

let test_pool_isolates_raising_thunk () =
  let pool = Eng.Pool.Persistent.create ~workers:1 () in
  (match Eng.Pool.Persistent.run pool (fun () -> failwith "boom") with
  | Some (Error e) ->
      Alcotest.(check string) "exn class" "Failure" e.Eng.Pool.exn_class
  | Some (Ok ()) -> Alcotest.fail "raising thunk returned Ok"
  | None -> Alcotest.fail "pool refused work");
  (* the worker survived the exception *)
  (match Eng.Pool.Persistent.run pool (fun () -> 41 + 1) with
  | Some (Ok v) -> Alcotest.(check int) "worker survived" 42 v
  | _ -> Alcotest.fail "worker died after a raising thunk");
  Eng.Pool.Persistent.shutdown pool

(* One worker blocked on a mutex lets us fill the queue deterministically. *)
let test_pool_admission_control () =
  let gate = Mutex.create () and cond = Condition.create () in
  let release = ref false in
  let blocker () =
    Mutex.lock gate;
    while not !release do
      Condition.wait cond gate
    done;
    Mutex.unlock gate
  in
  let pool = Eng.Pool.Persistent.create ~workers:1 ~queue_capacity:1 () in
  let running =
    match Eng.Pool.Persistent.submit pool blocker with
    | Eng.Pool.Persistent.Accepted t -> t
    | Rejected | Stopped -> Alcotest.fail "blocker refused"
  in
  (* wait until the blocker is actually running, not queued *)
  let rec wait_running n =
    if n = 0 then Alcotest.fail "blocker never started";
    let queued, _ = Eng.Pool.Persistent.backlog pool in
    if queued > 0 then (Thread.delay 0.01; wait_running (n - 1))
  in
  wait_running 500;
  let queued =
    match Eng.Pool.Persistent.submit pool (fun () -> ()) with
    | Eng.Pool.Persistent.Accepted t -> t
    | Rejected | Stopped -> Alcotest.fail "first queued job refused"
  in
  (* the queue (capacity 1) is now full: admission control must answer
     Rejected instantly, without blocking *)
  (match Eng.Pool.Persistent.submit pool (fun () -> ()) with
  | Eng.Pool.Persistent.Rejected -> ()
  | Accepted _ -> Alcotest.fail "over-capacity submission accepted"
  | Stopped -> Alcotest.fail "pool reported Stopped while live");
  Alcotest.(check bool) "queued ticket still pending" true
    (Eng.Pool.Persistent.peek queued = None);
  Mutex.lock gate;
  release := true;
  Condition.broadcast cond;
  Mutex.unlock gate;
  (match (Eng.Pool.Persistent.wait running, Eng.Pool.Persistent.wait queued) with
  | Ok (), Ok () -> ()
  | _ -> Alcotest.fail "accepted submissions did not complete");
  Eng.Pool.Persistent.shutdown pool;
  (match Eng.Pool.Persistent.submit pool (fun () -> ()) with
  | Eng.Pool.Persistent.Stopped -> ()
  | Accepted _ | Rejected -> Alcotest.fail "shut-down pool admitted work");
  Alcotest.(check int) "workers joined" 0 (Eng.Pool.Persistent.workers pool)

let test_pool_shutdown_drains_backlog () =
  (* every accepted ticket must be filled even when shutdown begins while
     submissions are still queued behind a slow job *)
  let pool = Eng.Pool.Persistent.create ~workers:1 ~queue_capacity:16 () in
  let slow () = Thread.delay 0.05 in
  let first =
    match Eng.Pool.Persistent.submit pool slow with
    | Eng.Pool.Persistent.Accepted t -> t
    | _ -> Alcotest.fail "refused"
  in
  let rest =
    List.init 5 (fun i ->
        match Eng.Pool.Persistent.submit pool (fun () -> i) with
        | Eng.Pool.Persistent.Accepted t -> t
        | _ -> Alcotest.fail "refused")
  in
  Eng.Pool.Persistent.shutdown pool;
  (match Eng.Pool.Persistent.wait first with
  | Ok () -> ()
  | Error e -> Alcotest.fail e.Eng.Pool.message);
  List.iteri
    (fun i t ->
      match Eng.Pool.Persistent.wait t with
      | Ok v -> Alcotest.(check int) "drained result" i v
      | Error e -> Alcotest.fail e.Eng.Pool.message)
    rest

(* ---------- Answer_cache: LRU policy and counters ---------- *)

let test_cache_lru_eviction () =
  let c = Srv.Answer_cache.create ~capacity:2 () in
  Srv.Answer_cache.add c "a" 1;
  Srv.Answer_cache.add c "b" 2;
  (* touch "a" so "b" becomes the least recently used *)
  (match Srv.Answer_cache.find c "a" with
  | Some 1 -> ()
  | _ -> Alcotest.fail "expected hit on a");
  Srv.Answer_cache.add c "c" 3;
  Alcotest.(check int) "capacity respected" 2 (Srv.Answer_cache.length c);
  Alcotest.(check bool) "b evicted" true (Srv.Answer_cache.find c "b" = None);
  Alcotest.(check bool) "a survived" true (Srv.Answer_cache.find c "a" = Some 1);
  Alcotest.(check bool) "c present" true (Srv.Answer_cache.find c "c" = Some 3);
  let hits, misses, evictions = Srv.Answer_cache.stats c in
  Alcotest.(check int) "hits" 3 hits;
  Alcotest.(check int) "misses" 1 misses;
  Alcotest.(check int) "evictions" 1 evictions

let test_cache_refresh_on_add () =
  let c = Srv.Answer_cache.create ~capacity:2 () in
  Srv.Answer_cache.add c "a" 1;
  Srv.Answer_cache.add c "b" 2;
  (* re-adding "a" refreshes both value and recency *)
  Srv.Answer_cache.add c "a" 10;
  Alcotest.(check int) "no growth on re-add" 2 (Srv.Answer_cache.length c);
  Srv.Answer_cache.add c "c" 3;
  Alcotest.(check bool) "a refreshed, b evicted" true
    (Srv.Answer_cache.find c "a" = Some 10
    && Srv.Answer_cache.find c "b" = None)

(* ---------- Answer_cache: write-ahead journal ---------- *)

let tmp_journal () = Filename.temp_file "fpgasat-journal" ".jsonl"

let journal_cleanup path =
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ path; path ^ ".lock"; path ^ ".compact" ]

let attach_ok cache path =
  match
    Srv.Answer_cache.attach_journal cache ~path ~to_json:Fun.id
      ~of_json:Option.some
  with
  | Ok n -> n
  | Error m -> Alcotest.fail ("attach_journal: " ^ m)

let count_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let n = ref 0 in
      (try
         while true do
           ignore (input_line ic);
           incr n
         done
       with End_of_file -> ());
      !n)

let test_journal_replay_and_compaction () =
  let path = tmp_journal () in
  Fun.protect
    ~finally:(fun () -> journal_cleanup path)
    (fun () ->
      let a1 = J.Obj [ ("outcome", J.String "routable"); ("width", J.Int 4) ]
      and b = J.Obj [ ("outcome", J.String "unroutable"); ("width", J.Int 3) ]
      and a2 = J.Obj [ ("outcome", J.String "routable"); ("width", J.Int 5) ] in
      let c1 = Srv.Answer_cache.create ~capacity:8 () in
      Alcotest.(check int) "fresh journal replays nothing" 0
        (attach_ok c1 path);
      Srv.Answer_cache.add c1 "a" a1;
      Srv.Answer_cache.add c1 "b" b;
      Srv.Answer_cache.add c1 "a" a2;
      Srv.Answer_cache.detach_journal c1;
      Alcotest.(check int) "three appended lines" 3 (count_lines path);
      let c2 = Srv.Answer_cache.create ~capacity:8 () in
      Alcotest.(check int) "all lines replayed" 3 (attach_ok c2 path);
      Alcotest.(check int) "torn count zero" 0 (Srv.Answer_cache.torn c2);
      (* later lines supersede earlier ones; replayed values are
         byte-identical to what was stored *)
      (match Srv.Answer_cache.find c2 "a" with
      | Some v ->
          Alcotest.(check string) "a superseded, byte-identical"
            (J.to_string a2) (J.to_string v)
      | None -> Alcotest.fail "key a lost in replay");
      (match Srv.Answer_cache.find c2 "b" with
      | Some v ->
          Alcotest.(check string) "b byte-identical" (J.to_string b)
            (J.to_string v)
      | None -> Alcotest.fail "key b lost in replay");
      (* attach compacted the file: dead supersessions are gone *)
      Alcotest.(check int) "compacted to live entries" 2 (count_lines path);
      Srv.Answer_cache.detach_journal c2)

let test_journal_tolerates_torn_tail () =
  let path = tmp_journal () in
  Fun.protect
    ~finally:(fun () -> journal_cleanup path)
    (fun () ->
      let c1 = Srv.Answer_cache.create () in
      ignore (attach_ok c1 path);
      Srv.Answer_cache.add c1 "a" (J.Obj [ ("n", J.Int 1) ]);
      Srv.Answer_cache.add c1 "b" (J.Obj [ ("n", J.Int 2) ]);
      Srv.Answer_cache.add c1 "c" (J.Obj [ ("n", J.Int 3) ]);
      Srv.Answer_cache.detach_journal c1;
      (* the torn final line a kill mid-append leaves behind *)
      Eng.Chaos.Server.tear_journal ~bytes:3 path;
      let c2 = Srv.Answer_cache.create () in
      Alcotest.(check int) "intact lines replayed" 2 (attach_ok c2 path);
      Alcotest.(check int) "torn fragment counted" 1
        (Srv.Answer_cache.torn c2);
      Alcotest.(check bool) "torn entry dropped" true
        (Srv.Answer_cache.find c2 "c" = None);
      Alcotest.(check bool) "intact entries survive" true
        (Srv.Answer_cache.find c2 "a" <> None
        && Srv.Answer_cache.find c2 "b" <> None);
      (* compaction removed the fragment: a further replay is clean *)
      Srv.Answer_cache.detach_journal c2;
      let c3 = Srv.Answer_cache.create () in
      ignore (attach_ok c3 path);
      Alcotest.(check int) "fragment compacted away" 0
        (Srv.Answer_cache.torn c3);
      Srv.Answer_cache.detach_journal c3)

(* A line whose \u escape has a non-hex digit is unparsable like any torn
   line: counted, skipped, and the lines around it replay. *)
let test_journal_bad_escape_counted_torn () =
  let path = tmp_journal () in
  Fun.protect
    ~finally:(fun () -> journal_cleanup path)
    (fun () ->
      let c1 = Srv.Answer_cache.create () in
      ignore (attach_ok c1 path);
      Srv.Answer_cache.add c1 "a" (J.Obj [ ("n", J.Int 1) ]);
      Srv.Answer_cache.detach_journal c1;
      let oc = open_out_gen [ Open_wronly; Open_append ] 0o644 path in
      output_string oc "{\"cache_key\":\"\\uZZZZ\"}\n";
      output_string oc "{\"n\":2,\"cache_key\":\"b\"}\n";
      close_out oc;
      let c2 = Srv.Answer_cache.create () in
      Alcotest.(check int) "lines around it replayed" 2 (attach_ok c2 path);
      Alcotest.(check int) "bad escape counted torn" 1
        (Srv.Answer_cache.torn c2);
      Alcotest.(check bool) "both good entries present" true
        (Srv.Answer_cache.find c2 "a" <> None
        && Srv.Answer_cache.find c2 "b" <> None);
      Srv.Answer_cache.detach_journal c2)

let test_journal_capacity_truncates_replay () =
  let path = tmp_journal () in
  Fun.protect
    ~finally:(fun () -> journal_cleanup path)
    (fun () ->
      let c1 = Srv.Answer_cache.create ~capacity:16 () in
      ignore (attach_ok c1 path);
      for i = 1 to 10 do
        Srv.Answer_cache.add c1
          (Printf.sprintf "k%d" i)
          (J.Obj [ ("n", J.Int i) ])
      done;
      Srv.Answer_cache.detach_journal c1;
      (* replaying into a smaller cache keeps only the newest entries *)
      let c2 = Srv.Answer_cache.create ~capacity:4 () in
      ignore (attach_ok c2 path);
      Alcotest.(check int) "LRU capacity bounds the replay" 4
        (Srv.Answer_cache.length c2);
      Alcotest.(check bool) "newest entries retained" true
        (Srv.Answer_cache.find c2 "k10" <> None
        && Srv.Answer_cache.find c2 "k1" = None);
      (* and compaction bounded the file to what survived *)
      Alcotest.(check int) "file bounded by capacity" 4 (count_lines path);
      Srv.Answer_cache.detach_journal c2)

let test_journal_lock_excludes_second_writer () =
  let path = tmp_journal () in
  Fun.protect
    ~finally:(fun () -> journal_cleanup path)
    (fun () ->
      let c1 = Srv.Answer_cache.create () in
      ignore (attach_ok c1 path);
      let c2 = Srv.Answer_cache.create () in
      (match
         Srv.Answer_cache.attach_journal c2 ~path ~to_json:Fun.id
           ~of_json:Option.some
       with
      | Error m ->
          Alcotest.(check bool) "error names the lock" true
            (let lower = String.lowercase_ascii m in
             let has_sub needle =
               let nl = String.length needle and ll = String.length lower in
               let rec at i =
                 i + nl <= ll
                 && (String.sub lower i nl = needle || at (i + 1))
               in
               at 0
             in
             has_sub "lock")
      | Ok _ -> Alcotest.fail "two live journals on one file");
      Srv.Answer_cache.detach_journal c1;
      (* the release frees the file for the next owner *)
      let c3 = Srv.Answer_cache.create () in
      ignore (attach_ok c3 path);
      Srv.Answer_cache.detach_journal c3)

(* Linearizability-style smoke under real parallelism: values are a pure
   function of their key, so whatever interleaving of add/find/evict the
   domains produce, a hit may only ever return its key's value, and the
   LRU bound must hold afterwards. *)
let qcheck_cache_concurrent =
  QCheck2.Test.make ~count:10
    ~name:"answer cache: concurrent domains only ever see coherent entries"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let capacity = 8 in
      let cache = Srv.Answer_cache.create ~capacity () in
      let keys = Array.init 16 (Printf.sprintf "key-%d") in
      let value k = "value-of:" ^ k in
      let coherent = Atomic.make true in
      let worker d =
        let st = Random.State.make [| seed; d |] in
        for _ = 1 to 300 do
          let k = keys.(Random.State.int st (Array.length keys)) in
          if Random.State.bool st then Srv.Answer_cache.add cache k (value k)
          else
            match Srv.Answer_cache.find cache k with
            | None -> ()
            | Some v ->
                if not (String.equal v (value k)) then
                  Atomic.set coherent false
        done
      in
      let domains =
        List.init 4 (fun d -> Domain.spawn (fun () -> worker d))
      in
      List.iter Domain.join domains;
      Atomic.get coherent && Srv.Answer_cache.length cache <= capacity)

(* ---------- Pool.Persistent: worker supervision ---------- *)

let rec wait_until what f n =
  if n = 0 then Alcotest.fail ("timed out waiting for " ^ what);
  if not (f ()) then begin
    Thread.delay 0.01;
    wait_until what f (n - 1)
  end

let test_pool_respawns_killed_worker () =
  let pool =
    Eng.Pool.Persistent.create ~workers:2 ~restart_backoff:0.01 ()
  in
  (match
     Eng.Pool.Persistent.run pool (fun () ->
         raise Eng.Pool.Persistent.Worker_killed)
   with
  | Some (Error e) ->
      Alcotest.(check bool) "classified as a worker death" true
        (Eng.Failure.error_is_worker_death e)
  | Some (Ok ()) -> Alcotest.fail "killing thunk returned Ok"
  | None -> Alcotest.fail "pool refused work");
  (* the ticket is filled before the dying domain reaches its death
     handler, so the counters lag the Error result — poll for them *)
  wait_until "death recorded"
    (fun () -> Eng.Pool.Persistent.deaths pool = 1)
    500;
  wait_until "replacement worker spawned"
    (fun () -> Eng.Pool.Persistent.workers pool = 2)
    500;
  Alcotest.(check int) "one death" 1 (Eng.Pool.Persistent.deaths pool);
  Alcotest.(check int) "one respawn" 1 (Eng.Pool.Persistent.respawns pool);
  (* the pool still works after supervision *)
  (match Eng.Pool.Persistent.run pool (fun () -> 6 * 7) with
  | Some (Ok v) -> Alcotest.(check int) "post-respawn result" 42 v
  | _ -> Alcotest.fail "pool dead after respawn");
  Eng.Pool.Persistent.shutdown pool;
  Alcotest.(check int) "workers joined" 0 (Eng.Pool.Persistent.workers pool)

let test_pool_restart_budget_exhausts () =
  let pool =
    Eng.Pool.Persistent.create ~workers:1 ~restart_budget:1
      ~restart_backoff:0.005 ()
  in
  let kill () =
    match
      Eng.Pool.Persistent.run pool (fun () ->
          raise Eng.Pool.Persistent.Worker_killed)
    with
    | Some (Error _) -> ()
    | _ -> Alcotest.fail "kill did not error"
  in
  kill ();
  wait_until "budgeted respawn"
    (fun () -> Eng.Pool.Persistent.respawns pool = 1)
    500;
  kill ();
  (* the budget (1) is spent: the second death is not replaced *)
  wait_until "budget exhausted, pool empty"
    (fun () -> Eng.Pool.Persistent.workers pool = 0)
    500;
  Alcotest.(check int) "two deaths" 2 (Eng.Pool.Persistent.deaths pool);
  Alcotest.(check int) "one respawn" 1 (Eng.Pool.Persistent.respawns pool);
  Eng.Pool.Persistent.shutdown pool

(* ---------- Chaos.Server: plans and the invariant checker ---------- *)

let test_chaos_server_plan_deterministic () =
  Array.iter
    (fun f ->
      Alcotest.(check bool)
        (Eng.Chaos.Server.fault_name f ^ " name round-trips")
        true
        (Eng.Chaos.Server.of_name (Eng.Chaos.Server.fault_name f) = Some f))
    Eng.Chaos.Server.all;
  Alcotest.(check bool) "unknown name rejected" true
    (Eng.Chaos.Server.of_name "meteor_strike" = None);
  let a = Eng.Chaos.Server.plan ~seed:7 ~n:12
  and b = Eng.Chaos.Server.plan ~seed:7 ~n:12
  and c = Eng.Chaos.Server.plan ~seed:8 ~n:12 in
  Alcotest.(check bool) "same seed, same plan" true (a = b);
  Alcotest.(check bool) "different seed, different plan" true (a <> c);
  (* full taxonomy coverage even in a short plan *)
  Array.iter
    (fun kind ->
      Alcotest.(check bool)
        (Eng.Chaos.Server.fault_name kind ^ " appears")
        true
        (Array.exists (fun f -> f = kind) a))
    Eng.Chaos.Server.all

let test_chaos_server_invariant_checker () =
  let stats workers =
    J.Obj [ ("pool", J.Obj [ ("workers", J.Int workers) ]) ]
  in
  (match
     Eng.Chaos.Server.check_invariants ~expected_workers:2 ~stats:(stats 2)
       ~pairs:[ ("{\"a\":1}", "{\"a\":1}") ]
   with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  (match
     Eng.Chaos.Server.check_invariants ~expected_workers:2 ~stats:(stats 1)
       ~pairs:[]
   with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "missing worker not flagged");
  match
    Eng.Chaos.Server.check_invariants ~expected_workers:2 ~stats:(stats 2)
      ~pairs:[ ("{\"a\":1}", "{\"a\":2}") ]
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "non-identical replay not flagged"

(* ---------- Protocol: JSON round-trips and strict parsing ---------- *)

let test_protocol_request_roundtrip () =
  let reqs =
    [
      P.request ~id:"r1" ~strategy:"log@minisat" ~max_conflicts:500
        ~max_seconds:2.5 ~max_memory_mb:64 ~certify:true ~telemetry:true
        ~benchmark:"alu2" ~width:4 P.Route;
      P.request ~id:"r2" ~deadline_ms:750 ~fault:"worker_kill"
        ~benchmark:"alu2" ~width:4 P.Route;
      P.request ~benchmark:"alu2" P.Min_width;
      P.request P.Ping;
      P.request P.Stats;
      P.request P.Shutdown;
      P.request ~id:"z" (P.Sleep 0.25);
    ]
  in
  List.iter
    (fun r ->
      match P.request_of_json (P.request_to_json r) with
      | Ok r' ->
          Alcotest.(check bool)
            (Printf.sprintf "request %s round-trips" (P.op_name r.P.op))
            true (r = r')
      | Error m -> Alcotest.fail m)
    reqs

let test_protocol_response_roundtrip () =
  let resps =
    [
      P.response ~id:"r1" ~served_by:P.Cache
        ~run:(J.Obj [ ("outcome", J.String "routable") ])
        P.Done;
      P.response ~served_by:P.Warm ~min_width:6 P.Done;
      P.response ~message:"bad strategy" P.Failed;
      P.response P.Overloaded;
      P.response P.Shutting_down;
      P.response ~id:"d1" ~message:"deadline passed" P.Deadline_exceeded;
    ]
  in
  List.iter
    (fun r ->
      match P.response_of_json (P.response_to_json r) with
      | Ok r' ->
          Alcotest.(check bool)
            (Printf.sprintf "response %s round-trips" (P.status_name r.P.status))
            true (r = r')
      | Error m -> Alcotest.fail m)
    resps

let test_protocol_rejects_malformed () =
  let expect_error what line =
    match P.parse_request line with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (what ^ ": malformed request accepted")
  in
  expect_error "not json" "{{{";
  expect_error "wrong schema" {|{"schema":"nope/9","op":"ping"}|};
  expect_error "unknown op" {|{"schema":"fpgasat.req/1","op":"explode"}|};
  expect_error "route without benchmark"
    {|{"schema":"fpgasat.req/1","op":"route","width":3}|};
  expect_error "route with width 0"
    {|{"schema":"fpgasat.req/1","op":"route","benchmark":"alu2","width":0}|};
  expect_error "min_width without benchmark"
    {|{"schema":"fpgasat.req/1","op":"min_width"}|}

let test_budget_signature_distinguishes () =
  let base = P.request ~benchmark:"alu2" ~width:3 P.Route in
  let sigs =
    List.map P.budget_signature
      [
        base;
        { base with P.max_conflicts = Some 100 };
        { base with P.max_seconds = Some 1.0 };
        { base with P.max_memory_mb = Some 64 };
      ]
  in
  let distinct = List.sort_uniq compare sigs in
  Alcotest.(check int) "four distinct budget signatures" 4
    (List.length distinct)

(* Run records from real runs: warm from the ladder with telemetry, from
   the stored clique and, certified with telemetry, from the stored
   colouring, and a cold certified refutation. *)
let real_run_records =
  lazy
    (let strat = strategy "ITE-linear-2+muldirect/s1@siege" in
     let session = Srv.Session.create ~benchmark:"alu2" strat alu2 in
     let cold =
       C.Flow.submit
         C.Flow.(default_request |> with_strategy strat |> with_certify true)
         (Srv.Session.route session) ~width:5
     in
     let ladder = Srv.Session.route_warm ~telemetry:true session ~width:6 in
     let clique = Srv.Session.route_warm session ~width:5 in
     let stored =
       Srv.Session.route_warm ~certify:true ~telemetry:true session ~width:7
     in
     List.map
       (fun run ->
         Eng.Run_record.to_json
           (Eng.Run_record.of_run ~benchmark:"alu2" ~wall_seconds:0.0123 run))
       [ ladder; clique; stored; cold ])

let qcheck_route_ok_line =
  let id_char =
    QCheck2.Gen.(oneof [ char; oneofl [ '"'; '\\'; '\n'; '\t'; '\x00'; '\x1f' ] ])
  in
  QCheck2.Test.make ~count:300
    ~name:"route_ok_line = J.to_string (response_to_json ...)"
    QCheck2.Gen.(
      triple
        (opt (string_size ~gen:id_char (0 -- 24)))
        (oneofl [ P.Cache; P.Warm; P.Cold ])
        (0 -- 3))
    (fun (id, served_by, i) ->
      let run = List.nth (Lazy.force real_run_records) i in
      P.route_ok_line ?id ~served_by (J.to_string run)
      = J.to_string (P.response_to_json (P.response ?id ~served_by ~run P.Done)))

(* ---------- outside bytes: request lines and journal lines ---------- *)

(* A request line comes from any client and a journal line from a file a
   crash may have torn. [parse_request] must answer [Ok] or [Error]; a
   replay must load each line or count it as torn ({!Outside_bytes}). *)
let json_tokens =
  [ "{"; "}"; "["; "]"; ":"; ","; "\""; "\\"; "\\u"; "\\u00e9"; "\\uZZZZ";
    "\"schema\""; "\"fpgasat.req/1\""; "\"fpgasat.run/1\""; "\"op\"";
    "\"route\""; "\"min_width\""; "\"sleep\""; "\"seconds\"";
    "\"benchmark\""; "\"alu2\""; "\"width\""; "\"strategy\"";
    "\"ITE-linear-2+muldirect+defs/s1\""; "\"max_seconds\""; "\"certify\"";
    "\"cache_key\""; "\"value\""; "\"outcome\""; "\"unroutable\""; "true";
    "false"; "null"; "1e999"; "-0.5"; "."; "-"; " "; "\t"; "\n" ]

let valid_request_line =
  J.to_string
    (P.request_to_json
       (P.request ~id:"r1" ~strategy:"ITE-linear-2+muldirect/s1@siege"
          ~max_conflicts:1000 ~max_seconds:2.5 ~max_memory_mb:64
          ~deadline_ms:100 ~certify:true ~telemetry:true ~benchmark:"alu2"
          ~width:6 P.Route))

(* Replays [text] as a whole journal and checks that every non-blank line
   was either loaded or counted torn. *)
let replay_journal text =
  let path = tmp_journal () in
  Fun.protect
    ~finally:(fun () -> journal_cleanup path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc text;
          output_char oc '\n');
      let lines =
        List.length
          (List.filter
             (fun l -> String.trim l <> "")
             (String.split_on_char '\n' text))
      in
      let cache = Srv.Answer_cache.create () in
      match
        Srv.Answer_cache.attach_journal cache ~path ~to_json:Eng.Run_record.to_json
          ~of_json:(fun j -> Result.to_option (Eng.Run_record.of_json j))
      with
      | Error m -> failwith ("attach_journal: " ^ m)
      | Ok replayed ->
          Srv.Answer_cache.detach_journal cache;
          if replayed + Srv.Answer_cache.torn cache <> lines then
            failwith
              (Printf.sprintf "%d lines, %d replayed, %d torn" lines replayed
                 (Srv.Answer_cache.torn cache)))

(* A line as the server journals it: a run record plus its cache key. *)
let valid_journal_line =
  match List.hd (Lazy.force real_run_records) with
  | J.Obj fields -> J.to_string (J.Obj (fields @ [ ("cache_key", J.String "k1") ]))
  | _ -> assert false

let outside_readers =
  [
    ( "Protocol.parse_request",
      (fun s -> ignore (P.parse_request s)),
      json_tokens,
      valid_request_line );
    ( "Answer_cache journal replay",
      replay_journal,
      json_tokens,
      valid_journal_line );
  ]

(* ---------- Cnf.structural_hash ---------- *)

let test_structural_hash_ignores_provenance () =
  let build () =
    let cnf = Sat.Cnf.create ~capacity:(4, 1) () in
    let v = Sat.Cnf.fresh_vars cnf 5 in
    Sat.Cnf.add_clause cnf [ Sat.Lit.pos v.(0); Sat.Lit.neg_of v.(1) ];
    Sat.Cnf.add_clause cnf [ Sat.Lit.pos v.(2) ];
    Sat.Cnf.add_clause cnf
      [ Sat.Lit.neg_of v.(3); Sat.Lit.pos v.(4); Sat.Lit.pos v.(0) ];
    cnf
  in
  let a = build () and b = build () in
  Alcotest.(check bool) "same content, same hash" true
    (Sat.Cnf.structural_hash a = Sat.Cnf.structural_hash b);
  let copied = Sat.Cnf.copy a in
  Alcotest.(check bool) "copy preserves hash" true
    (Sat.Cnf.structural_hash a = Sat.Cnf.structural_hash copied);
  (* one extra clause must change the hash *)
  Sat.Cnf.add_clause copied [ Sat.Lit.neg_of 0 ];
  Alcotest.(check bool) "added clause changes hash" true
    (Sat.Cnf.structural_hash a <> Sat.Cnf.structural_hash copied);
  (* a spare variable is content too (it widens the model space) *)
  let c = build () in
  ignore (Sat.Cnf.fresh_var c);
  Alcotest.(check bool) "extra variable changes hash" true
    (Sat.Cnf.structural_hash a <> Sat.Cnf.structural_hash c)

(* Random formulas: identical builds collide, any single-literal flip
   separates (an FNV-64 collision on such a pair would be astronomically
   unlikely and is a test failure in practice). *)
let qcheck_structural_hash =
  let gen =
    QCheck2.Gen.(
      let clause nvars =
        list_size (int_range 1 4)
          (tup2 (int_bound (nvars - 1)) bool)
      in
      int_range 2 8 >>= fun nvars ->
      list_size (int_range 1 10) (clause nvars) >>= fun clauses ->
      int_bound (List.length clauses - 1) >>= fun flip_clause ->
      return (nvars, clauses, flip_clause))
  in
  QCheck2.Test.make ~count:200
    ~name:"structural_hash: stable on rebuild, sensitive to a literal flip"
    gen
    (fun (nvars, clauses, flip_clause) ->
      let build mutate =
        let cnf = Sat.Cnf.create () in
        Sat.Cnf.ensure_vars cnf nvars;
        List.iteri
          (fun i lits ->
            let lits =
              List.map (fun (v, sign) -> Sat.Lit.make v sign) lits
            in
            let lits =
              if mutate && i = flip_clause then
                (* flipping the first literal's sign changes the clause —
                   unless its negation is already present, in which case the
                   normalised clause may dedupe/tautologise; keep the test
                   meaningful by adding a fresh literal instead *)
                Sat.Lit.make (nvars - 1) true :: Sat.Lit.negate (List.hd lits)
                :: lits
              else lits
            in
            Sat.Cnf.add_clause cnf lits)
          clauses;
        cnf
      in
      let a = build false and b = build false and m = build true in
      let content cnf =
        ( Sat.Cnf.num_vars cnf,
          List.init (Sat.Cnf.num_clauses cnf) (fun i ->
              Sat.Cnf.view_to_list (Sat.Cnf.get_clause cnf i)) )
      in
      let ha = Sat.Cnf.structural_hash a
      and hb = Sat.Cnf.structural_hash b
      and hm = Sat.Cnf.structural_hash m in
      (* identical builds always collide; the hash tracks normalised
         content exactly, so it separates the mutated build iff the
         mutation survived clause normalisation (a tautological original
         clause is dropped in both builds, leaving the content equal) *)
      ha = hb && content a = content b
      && if content a = content m then ha = hm else ha <> hm)

(* ---------- warm ladder vs cold flow agreement ---------- *)

let no_solver_work (run : C.Flow.run) =
  run.C.Flow.solver_stats = Sat.Stats.create ()
  && C.Flow.total run.C.Flow.timings = 0.

let test_warm_agrees_with_cold () =
  let strat = strategy "direct@siege" in
  (* a fresh session per call: a routable ladder answer becomes the
     session's best colouring, which would answer a second call at that
     width on the same session without the ladder *)
  let fresh () = Srv.Session.create ~benchmark:"alu2" strat alu2 in
  let lower, upper = Srv.Session.bounds (fresh ()) in
  Alcotest.(check bool) "bounds sane" true (1 <= lower && lower <= upper);
  (* probe a band of widths around the transition *)
  let cnf_size =
    C.Incremental_width.(
      cnf_size (prepare ~strategy:strat alu2.F.Benchmarks.graph))
  in
  (* widths >= upper take the DSATUR colouring, widths below the clique the
     clique, the rest the solver *)
  let widths =
    List.filter (fun w -> w >= 1) [ upper + 1; upper; upper - 1; upper - 2 ]
  in
  Alcotest.(check bool) "every branch probed" true
    (List.exists (fun w -> w < lower) widths
    && List.exists (fun w -> lower <= w && w < upper) widths);
  let banded = ref 0 in
  List.iter
    (fun w ->
      let ctx what = Printf.sprintf "width %d %s" w what in
      let session = fresh () in
      let warm = Srv.Session.route_warm session ~width:w in
      let metered = Srv.Session.route_warm ~telemetry:true (fresh ()) ~width:w in
      (* the same width again on the first session: once the ladder has
         routed it, from the stored colouring *)
      let again = Srv.Session.route_warm session ~width:w in
      let cold =
        C.Flow.(submit (default_request |> with_strategy strat))
          alu2.F.Benchmarks.route ~width:w
      in
      let name o = C.Flow.outcome_name o in
      Alcotest.(check string) (ctx "verdict") (name cold.C.Flow.outcome)
        (name warm.C.Flow.outcome);
      Alcotest.(check string) (ctx "metered verdict") (name warm.C.Flow.outcome)
        (name metered.C.Flow.outcome);
      Alcotest.(check string) (ctx "repeated verdict") (name warm.C.Flow.outcome)
        (name again.C.Flow.outcome);
      Alcotest.(check bool) (ctx "telemetry only when asked") true
        (warm.C.Flow.telemetry = None && metered.C.Flow.telemetry <> None);
      List.iter
        (fun (run : C.Flow.run) ->
          Alcotest.(check (option bool)) (ctx "never certified") None
            run.C.Flow.certified;
          Alcotest.(check bool) (ctx "no proof") true (run.C.Flow.proof = None);
          Alcotest.(check (pair int int)) (ctx "session CNF size") cnf_size
            (run.C.Flow.cnf_vars, run.C.Flow.cnf_clauses);
          (* warm runs report only solving time; encode/graph are amortised *)
          Alcotest.(check bool) (ctx "timings amortised") true
            (run.C.Flow.timings.C.Flow.to_graph = 0.
            && run.C.Flow.timings.C.Flow.to_cnf = 0.))
        [ warm; metered; again ];
      (* between the clique and the greedy bound the ladder drives the
         solver through assumption selector levels; the max_decision_level
         watermark must count them even when no free decision happens (it
         used to track only free decisions, reading 0 on assumption-driven
         queries). Below the clique the stored clique answers, and no
         solver runs at all. *)
      (match warm.C.Flow.outcome with
      | (C.Flow.Routable _ | C.Flow.Unroutable) when lower <= w && w < upper
        ->
          List.iter
            (fun (run : C.Flow.run) ->
              Alcotest.(check bool) (ctx "decision levels counted") true
                (run.C.Flow.solver_stats.Sat.Stats.max_decision_level >= 1))
            [ warm; metered ]
      | _ when w < lower ->
          List.iter
            (fun (run : C.Flow.run) ->
              Alcotest.(check bool) (ctx "no solver work") true
                (no_solver_work run))
            [ warm; metered; again ]
      | _ -> ());
      (* a ladder's routable answer lowers the session's fewest colours to
         at most its width, and that width is then in the stored band *)
      (match warm.C.Flow.outcome with
      | C.Flow.Routable _ when w < upper ->
          incr banded;
          Alcotest.(check bool) (ctx "fewest colours lowered") true
            (Srv.Session.fewest_colors session <= w);
          Alcotest.(check bool) (ctx "repeat from the stored colouring") true
            (no_solver_work again)
      | _ -> ());
      List.iter
        (fun (run : C.Flow.run) ->
          match run.C.Flow.outcome with
          | C.Flow.Routable d -> (
              match
                F.Detailed_route.verify alu2.F.Benchmarks.route ~width:w
                  d.F.Detailed_route.tracks
              with
              | Ok () -> ()
              | Error v ->
                  Alcotest.fail
                    (Format.asprintf "%s: %a" (ctx "warm routing invalid")
                       F.Detailed_route.pp_violation v))
          | C.Flow.Unroutable | C.Flow.Timeout | C.Flow.Memout -> ())
        [ warm; again ])
    widths;
  Alcotest.(check bool) "stored band below the DSATUR bound probed" true
    (!banded >= 1)

let test_warm_min_width_agrees_with_search () =
  let strat = strategy "direct@siege" in
  let session = Srv.Session.create ~benchmark:"alu2" strat alu2 in
  let warm =
    match Srv.Session.min_width session with
    | Ok w -> w
    | Error m -> Alcotest.fail m
  in
  match
    C.Binary_search.minimal_width
      ~budget:(Sat.Solver.time_budget 60.)
      alu2.F.Benchmarks.route
  with
  | Ok r ->
      Alcotest.(check int) "warm min_width = binary search w_min"
        r.C.Binary_search.w_min warm
  | Error m -> Alcotest.fail m

(* The server's warm min_width and the library's minimal_colors share one
   walk over the ladder. On too_large the maximum clique and the DSATUR
   colouring meet at 7, so the walk makes no query. *)
let test_warm_min_width_agrees_with_minimal_colors () =
  let too_large =
    F.Benchmarks.build (Option.get (F.Benchmarks.find "too_large"))
  in
  List.iter
    (fun (bname, inst, sname, pinned) ->
      let strat = strategy sname in
      let ctx = bname ^ " " ^ sname in
      let session = Srv.Session.create ~benchmark:bname strat inst in
      match
        ( Srv.Session.min_width session,
          C.Incremental_width.minimal_colors ~strategy:strat
            inst.F.Benchmarks.graph )
      with
      | Ok warm, Ok search -> (
          Alcotest.(check int) (ctx ^ ": same w_min")
            search.C.Incremental_width.w_min warm;
          match pinned with
          | None -> ()
          | Some w_min_and_queries ->
              Alcotest.(check (pair int int)) (ctx ^ ": w_min and queries")
                w_min_and_queries
                (search.C.Incremental_width.w_min,
                 search.C.Incremental_width.queries))
      | Error m, _ | _, Error m -> Alcotest.fail (ctx ^ ": " ^ m))
    [
      ("alu2", alu2, "direct@siege", None);
      ("alu2", alu2, "ITE-linear-2+muldirect/s1", None);
      ("too_large", too_large, "ITE-linear-2+muldirect/s1", Some (7, 0));
    ]

(* ---------- the server over a real socket ---------- *)

let fresh_socket_path =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "fpgasat-test-%d-%d.sock" (Unix.getpid ()) !counter)

let with_server ?(workers = 2) ?(queue_capacity = 16) ?(test_ops = true)
    ?cache_file f =
  let socket_path = fresh_socket_path () in
  let config =
    {
      (Srv.Server.default_config ~socket_path) with
      Srv.Server.workers;
      queue_capacity;
      cache_file;
      test_ops;
    }
  in
  let server = Srv.Server.start config in
  Fun.protect
    ~finally:(fun () ->
      Srv.Server.stop server;
      if Sys.file_exists socket_path then
        Alcotest.fail "socket file survived the drain")
    (fun () -> f server socket_path)

let call_ok socket req =
  match Srv.Client.one_shot ~socket req with
  | Ok resp -> resp
  | Error m -> Alcotest.fail m

let server_pool_gauge server key =
  match J.find (Srv.Server.stats_json server) "pool" with
  | Some pool -> (
      match J.find pool key with Some (J.Int n) -> n | _ -> -1)
  | None -> -1

let test_server_ping_and_stats () =
  with_server (fun _server socket ->
      let pong = call_ok socket (P.request ~id:"p1" P.Ping) in
      Alcotest.(check string) "ping ok" "ok" (P.status_name pong.P.status);
      Alcotest.(check bool) "id echoed" true (pong.P.resp_id = Some "p1");
      let stats = call_ok socket (P.request P.Stats) in
      match stats.P.payload with
      | Some payload ->
          Alcotest.(check bool) "stats counts the ping" true
            (match J.find payload "requests" with
            | Some (J.Int n) -> n >= 1
            | _ -> false)
      | None -> Alcotest.fail "stats response without payload")

let test_server_cache_hit_on_repeat () =
  with_server (fun server socket ->
      let req =
        P.request ~strategy:"direct@siege" ~benchmark:"alu2" ~width:5 P.Route
      in
      let first = call_ok socket req in
      Alcotest.(check string) "first ok" "ok" (P.status_name first.P.status);
      Alcotest.(check bool) "first not from cache" true
        (first.P.served_by = Some P.Warm || first.P.served_by = Some P.Cold);
      let second = call_ok socket req in
      Alcotest.(check bool) "repeat served from cache" true
        (second.P.served_by = Some P.Cache);
      (* a cache replay is the stored answer verbatim: identical run
         payload, solver statistics included (no solver ran again) *)
      (match (first.P.run, second.P.run) with
      | Some a, Some b ->
          Alcotest.(check bool) "identical run payload" true (J.equal a b)
      | _ -> Alcotest.fail "route response without run payload");
      match Srv.Server.stats_json server with
      | J.Obj _ as payload ->
          Alcotest.(check bool) "server counted the cache hit" true
            (match J.find payload "cache_hits" with
            | Some (J.Int n) -> n >= 1
            | _ -> false)
      | _ -> Alcotest.fail "stats_json not an object")

(* A hit is answered by its connection thread: with the only worker busy
   it is served at once and the pool's gauges do not move. Every route
   request moves the cache's hits + misses by exactly one, whether its
   lookup ran on a worker (no session yet) or on the connection thread. *)
let test_server_hits_skip_the_pool () =
  with_server ~workers:1 (fun server socket ->
      let cache_stat key =
        match J.find (Srv.Server.stats_json server) "cache" with
        | Some cache -> (
            match J.find cache key with Some (J.Int n) -> n | _ -> -1)
        | None -> -1
      in
      let ask what req ~moves =
        let hits0 = cache_stat "hits" and misses0 = cache_stat "misses" in
        let resp = call_ok socket req in
        Alcotest.(check string) (what ^ ": ok") "ok"
          (P.status_name resp.P.status);
        Alcotest.(check (pair int int))
          (what ^ ": cache hits and misses moved")
          moves
          (cache_stat "hits" - hits0, cache_stat "misses" - misses0);
        resp
      in
      let req =
        P.request ~strategy:"direct@siege" ~benchmark:"alu2" ~width:5 P.Route
      in
      ignore (ask "first ask, no session" req ~moves:(0, 1));
      ignore (ask "first ask, live session" { req with P.width = 6 } ~moves:(0, 1));
      wait_until "pool idle"
        (fun () -> server_pool_gauge server "running" = 0)
        300;
      let sleeper =
        Thread.create
          (fun () ->
            ignore (Srv.Client.one_shot ~socket (P.request (P.Sleep 0.5))))
          ()
      in
      wait_until "sleeper running"
        (fun () -> server_pool_gauge server "running" = 1)
        300;
      let gauges () =
        (server_pool_gauge server "queued", server_pool_gauge server "running")
      in
      let before = gauges () in
      let hit = ask "repeat" req ~moves:(1, 0) in
      Alcotest.(check (option string)) "repeat served from cache"
        (Some "cache")
        (Option.map P.served_by_name hit.P.served_by);
      Alcotest.(check (pair int int)) "pool gauges unchanged" before (gauges ());
      Thread.join sleeper)

(* Certified routes in the three bands of a session. alu2 under the
   paper's best strategy has maximum clique 6, w_min 6 and DSATUR bound 7.
   At the DSATUR bound a certified route is answered warm from the stored
   colouring (verify alone). In the gap between the clique and the fewest
   colours the session has seen, 6 before anything has coloured it, it
   takes the cold pipeline and returns a checked model. Below the clique,
   at 5, it is answered warm from the stored clique with no solver call,
   and the clique certifies the refutation. Each certified request moves
   exactly one of the [warm] and [cold] counters. *)
let test_server_certified_warm_and_cold () =
  let strategy = "ITE-linear-2+muldirect/s1@siege" in
  with_server (fun server socket ->
      let counter key =
        match J.find (Srv.Server.stats_json server) key with
        | Some (J.Int n) -> n
        | _ -> Alcotest.fail ("stats without " ^ key)
      in
      let field run key =
        match run with
        | Some run -> J.find run key
        | None -> Alcotest.fail "route response without run payload"
      in
      let certified width ~served_by ~outcome =
        let ctx what = Printf.sprintf "width %d: %s" width what in
        let warm0 = counter "warm" and cold0 = counter "cold" in
        let resp =
          call_ok socket
            (P.request ~strategy ~benchmark:"alu2" ~width ~certify:true
               P.Route)
        in
        Alcotest.(check (option string)) (ctx "served by")
          (Some served_by)
          (Option.map P.served_by_name resp.P.served_by);
        Alcotest.(check bool) (ctx "outcome") true
          (field resp.P.run "outcome" = Some (J.String outcome));
        Alcotest.(check bool) (ctx "certified") true
          (field resp.P.run "certified" = Some (J.Bool true));
        let dwarm = counter "warm" - warm0 and dcold = counter "cold" - cold0 in
        Alcotest.(check (pair int int)) (ctx "one of warm or cold")
          (if served_by = "warm" then (1, 0) else (0, 1))
          (dwarm, dcold);
        resp
      in
      ignore (certified 7 ~served_by:"warm" ~outcome:"routable");
      ignore (certified 6 ~served_by:"cold" ~outcome:"routable");
      let refuted = certified 5 ~served_by:"warm" ~outcome:"unroutable" in
      (match Option.map Eng.Run_record.of_json refuted.P.run with
      | Some (Ok record) ->
          Alcotest.(check bool) "width 5: no solver work" true
            (record.Eng.Run_record.stats = Sat.Stats.create ()
            && C.Flow.total record.Eng.Run_record.timings = 0.)
      | Some (Error m) -> Alcotest.fail m
      | None -> Alcotest.fail "route response without run payload");
      let mw =
        call_ok socket (P.request ~strategy ~benchmark:"alu2" P.Min_width)
      in
      Alcotest.(check (option int)) "min_width" (Some 6) mw.P.min_width)

(* The session side of the same boundaries: fewest_colors starts at the
   DSATUR bound and falls with routable ladder answers. A certified width
   at or above it is answered from the stored colouring, checked against
   the architecture, and one below the clique (alu2's is 6) from the
   clique, checked against the global route; neither runs the solver.
   Between the two the ladder answers uncertified only. *)
let test_session_fewest_colors () =
  let strat = strategy "ITE-linear-2+muldirect/s1@siege" in
  let session = Srv.Session.create ~benchmark:"alu2" strat alu2 in
  let _, upper = Srv.Session.bounds session in
  Alcotest.(check int) "starts at the DSATUR bound" upper
    (Srv.Session.fewest_colors session);
  Alcotest.check_raises "no certified ladder answer"
    (Invalid_argument "Session.route_warm: certify in the ladder band")
    (fun () -> ignore (Srv.Session.route_warm ~certify:true session ~width:6));
  let run = Srv.Session.route_warm session ~width:6 in
  Alcotest.(check string) "w_min is routable" "routable"
    (C.Flow.outcome_name run.C.Flow.outcome);
  Alcotest.(check (option bool)) "uncertified by default" None
    run.C.Flow.certified;
  Alcotest.(check int) "lowered by a ladder's routable answer" 6
    (Srv.Session.fewest_colors session);
  let stored = Srv.Session.route_warm ~certify:true session ~width:6 in
  Alcotest.(check (option bool)) "stored colouring checked" (Some true)
    stored.C.Flow.certified;
  Alcotest.(check bool) "stored colouring: no solver work" true
    (no_solver_work stored);
  let refuted = Srv.Session.route_warm ~certify:true session ~width:5 in
  Alcotest.(check string) "below w_min" "unroutable"
    (C.Flow.outcome_name refuted.C.Flow.outcome);
  Alcotest.(check (option bool)) "refuted by the clique, checked" (Some true)
    refuted.C.Flow.certified;
  (* the clique answers every width below it, but a width below 1 is no
     question at all *)
  Alcotest.check_raises "width 0"
    (Invalid_argument "Session.route_warm: width < 1") (fun () ->
      ignore (Srv.Session.route_warm ~certify:true session ~width:0))

(* min_width keeps the colouring its walk found, so every width from w_min
   up is answered and certified from it, with no solver and no lock. alu2's
   DSATUR bound is w_min + 1 and C880's w_min + 2, so w_min on both and
   w_min + 1 on C880 are below the DSATUR colouring's reach. w_min is the
   clique bound on both, so a second min_width is settled by the stored
   colouring: a walk, interrupted at its first poll, would fail. *)
let test_session_serves_from_best_coloring () =
  List.iter
    (fun bname ->
      let session =
        Srv.Session.create ~benchmark:bname
          (strategy "ITE-linear-2+muldirect/s1")
          (F.Benchmarks.build (Option.get (F.Benchmarks.find bname)))
      in
      let w_min =
        match Srv.Session.min_width session with
        | Ok w -> w
        | Error m -> Alcotest.fail (bname ^ ": " ^ m)
      in
      Alcotest.(check int) (bname ^ ": fewest colours = w_min") w_min
        (Srv.Session.fewest_colors session);
      List.iter
        (fun (width, certify) ->
          let ctx what =
            Printf.sprintf "%s width %d%s: %s" bname width
              (if certify then " certified" else "")
              what
          in
          let run = Srv.Session.route_warm ~certify session ~width in
          Alcotest.(check string) (ctx "routable") "routable"
            (C.Flow.outcome_name run.C.Flow.outcome);
          Alcotest.(check bool) (ctx "no solver work") true
            (no_solver_work run);
          Alcotest.(check (option bool)) (ctx "certified")
            (if certify then Some true else None)
            run.C.Flow.certified)
        [ (w_min, false); (w_min + 1, false); (w_min, true); (w_min + 1, true) ];
      Alcotest.(check (result int string)) (bname ^ ": min_width again")
        (Ok w_min)
        (Srv.Session.min_width
           ~budget:
             Sat.Solver.(
               with_poll_interval 1 (interruptible (fun () -> true) no_budget))
           session))
    [ "alu2"; "C880" ]

(* ---------- what a session retains ---------- *)

let build name = F.Benchmarks.build (Option.get (F.Benchmarks.find name))

(* On C1355 the maximum clique meets the DSATUR bound (10), so every width
   is answered from the bounds: the session keeps no solver and no CNF,
   and all it retains, the benchmark instance included, is smaller than
   the encoded CNF alone. *)
let test_session_bounds_only_is_small () =
  let inst = build "C1355" in
  let strat = C.Strategy.best_single in
  let session = Srv.Session.create ~benchmark:"C1355" strat inst in
  let lower, upper = Srv.Session.bounds session in
  Alcotest.(check (pair int int)) "clique meets DSATUR" (10, 10) (lower, upper);
  Alcotest.(check bool) "no solver" false (Srv.Session.has_solver session);
  let encoded =
    Fpgasat_encodings.Csp_encode.encode ?symmetry:strat.C.Strategy.symmetry
      strat.C.Strategy.encoding
      (Fpgasat_encodings.Csp.make inst.F.Benchmarks.graph ~k:upper)
  in
  let session_words = Obj.reachable_words (Obj.repr session) in
  let cnf_words =
    Obj.reachable_words (Obj.repr encoded.Fpgasat_encodings.Csp_encode.cnf)
  in
  if session_words >= cnf_words then
    Alcotest.failf "session retains %d words, its encoded CNF is %d"
      session_words cnf_words

let masked (run : C.Flow.run) =
  J.to_string
    (Eng.Run_record.to_json
       (Eng.Run_record.of_run ~benchmark:"b" ~wall_seconds:0.
          {
            run with
            C.Flow.timings = { C.Flow.to_graph = 0.; to_cnf = 0.; solving = 0. };
          }))

(* A width request as the server answers it: certified widths in the gap
   between the clique and the session's fewest colours go cold, every
   other width warm. *)
let serve session ~width ~certify =
  let lower, _ = Srv.Session.bounds session in
  if certify && lower <= width && width < Srv.Session.fewest_colors session
  then
    C.Flow.(
      submit
        (default_request
        |> with_strategy (Srv.Session.strategy session)
        |> with_certify true))
      (Srv.Session.route session) ~width
  else Srv.Session.route_warm ~certify session ~width

(* Sessions of one benchmark share its instance and bounds, and a session
   built from a sibling answers every width, plain and certified, exactly
   as one built alone: same verdicts, same run records, same solver work.
   alu2 keeps a gap (clique 6, DSATUR 7), too_large has none (7). *)
let test_sibling_sessions_share () =
  List.iter
    (fun bname ->
      let first =
        Srv.Session.create ~benchmark:bname (strategy "direct@siege")
          (build bname)
      in
      let strat = strategy "ITE-linear-2+direct/s1@siege" in
      let shared = Srv.Session.sibling first strat in
      let alone = Srv.Session.create ~benchmark:bname strat (build bname) in
      Alcotest.(check bool) (bname ^ ": one route") true
        (Srv.Session.route shared == Srv.Session.route first);
      Alcotest.(check (pair int int)) (bname ^ ": same bounds")
        (Srv.Session.bounds alone) (Srv.Session.bounds shared);
      Alcotest.(check string) (bname ^ ": same CNF")
        (Srv.Session.structural_hash alone)
        (Srv.Session.structural_hash shared);
      let _, upper = Srv.Session.bounds alone in
      List.iter
        (fun certify ->
          for width = 1 to upper + 1 do
            Alcotest.(check string)
              (Printf.sprintf "%s width %d%s" bname width
                 (if certify then " certified" else ""))
              (masked (serve alone ~width ~certify))
              (masked (serve shared ~width ~certify))
          done)
        [ false; true ])
    [ "alu2"; "too_large" ]

(* [stats] counts the live sessions that hold a solver: none for the
   benchmarks whose clique meets the DSATUR bound, one once alu2 has a
   session. *)
let test_server_counts_solvers () =
  with_server (fun server socket ->
      let gauge key =
        match J.find (Srv.Server.stats_json server) key with
        | Some (J.Int n) -> n
        | _ -> -1
      in
      List.iter
        (fun (bname, width) ->
          let resp = call_ok socket (P.request ~benchmark:bname ~width P.Route) in
          Alcotest.(check string) (bname ^ " ok") "ok"
            (P.status_name resp.P.status))
        [ ("C1355", 11); ("too_large", 7) ];
      Alcotest.(check (pair int int)) "bounds-only sessions" (2, 0)
        (gauge "sessions", gauge "solvers");
      ignore (call_ok socket (P.request ~benchmark:"alu2" P.Min_width));
      Alcotest.(check (pair int int)) "alu2 holds a solver" (3, 1)
        (gauge "sessions", gauge "solvers"))

(* A session is built outside the session map's lock: cache hits on a live
   session, answered by connection threads, do not wait for another
   session's cold build. *)
let test_server_hits_during_a_build () =
  with_server (fun _server socket ->
      let hit = P.request ~benchmark:"alu2" ~width:7 P.Route in
      ignore (call_ok socket hit);
      ignore (call_ok socket hit);
      let conn =
        match Srv.Client.connect socket with
        | Ok c -> c
        | Error m -> Alcotest.fail m
      in
      Fun.protect ~finally:(fun () -> Srv.Client.close conn) @@ fun () ->
      let build_span = ref None in
      let builder =
        Thread.create
          (fun () ->
            let t0 = Unix.gettimeofday () in
            ignore
              (Srv.Client.one_shot ~socket
                 (P.request ~benchmark:"C880" ~width:8
                    ~strategy:"ITE-log/s1@siege" P.Route));
            build_span := Some (t0, Unix.gettimeofday ()))
          ()
      in
      let hits = ref [] in
      while Option.is_none !build_span do
        let t0 = Unix.gettimeofday () in
        (match Srv.Client.call conn hit with
        | Ok { P.served_by = Some P.Cache; _ } -> ()
        | Ok _ -> Alcotest.fail "repeat not served from the cache"
        | Error m -> Alcotest.fail m);
        hits := (t0, Unix.gettimeofday ()) :: !hits;
        Thread.delay 0.002
      done;
      Thread.join builder;
      let b0, b1 = Option.get !build_span in
      let during =
        List.filter_map
          (fun (t0, t1) -> if t0 >= b0 && t1 <= b1 then Some (t1 -. t0) else None)
          !hits
      in
      let worst = List.fold_left Float.max 0. during in
      if List.length during < 3 || worst > (b1 -. b0) /. 4. then
        Alcotest.failf
          "%d hits during a %.0f ms build, the slowest in %.1f ms"
          (List.length during) (1000. *. (b1 -. b0)) (1000. *. worst))

let test_server_concurrent_clients () =
  with_server (fun _server socket ->
      let widths = [| 5; 6; 7; 5; 6; 7 |] in
      let results = Array.make (Array.length widths) None in
      let threads =
        Array.mapi
          (fun i w ->
            Thread.create
              (fun () ->
                let req =
                  P.request ~strategy:"direct@siege" ~benchmark:"alu2"
                    ~width:w P.Route
                in
                results.(i) <- Some (Srv.Client.one_shot ~socket req))
              ())
          widths
      in
      Array.iter Thread.join threads;
      Array.iteri
        (fun i r ->
          match r with
          | Some (Ok resp) ->
              Alcotest.(check string)
                (Printf.sprintf "client %d ok" i)
                "ok"
                (P.status_name resp.P.status);
              Alcotest.(check bool) "has run payload" true (resp.P.run <> None)
          | Some (Error m) -> Alcotest.fail m
          | None -> Alcotest.fail "client thread produced no result")
        results;
      (* the repeated (benchmark, width, strategy) triples agree on the
         verdict regardless of which worker or cache tier served them *)
      let outcome i =
        match results.(i) with
        | Some (Ok { P.run = Some run; _ }) -> J.find run "outcome"
        | _ -> None
      in
      Alcotest.(check bool) "same width, same verdict" true
        (outcome 0 = outcome 3 && outcome 1 = outcome 4 && outcome 2 = outcome 5))

let test_server_rejects_bad_requests () =
  with_server (fun _server socket ->
      (* malformed strategy: a protocol error, not a crash *)
      let bad_strategy =
        call_ok socket
          (P.request ~strategy:"direct-2+log" ~benchmark:"alu2" ~width:4
             P.Route)
      in
      Alcotest.(check string) "out-of-registry strategy fails" "error"
        (P.status_name bad_strategy.P.status);
      Alcotest.(check bool) "error carries a message" true
        (bad_strategy.P.message <> None);
      (* unknown benchmark *)
      let bad_bench =
        call_ok socket (P.request ~benchmark:"no_such_circuit" ~width:4 P.Route)
      in
      Alcotest.(check string) "unknown benchmark fails" "error"
        (P.status_name bad_bench.P.status);
      (* raw garbage on the wire still gets a parseable error line *)
      match Srv.Client.connect socket with
      | Error m -> Alcotest.fail m
      | Ok conn ->
          Fun.protect
            ~finally:(fun () -> Srv.Client.close conn)
            (fun () ->
              match Srv.Client.call_line conn "this is not json" with
              | Error m -> Alcotest.fail m
              | Ok line -> (
                  match P.parse_response line with
                  | Ok resp ->
                      Alcotest.(check string) "garbage line -> error" "error"
                        (P.status_name resp.P.status)
                  | Error m -> Alcotest.fail m)))

let test_server_overload () =
  (* one worker, queue of one: a long sleep occupies the worker, a second
     sleep fills the queue, the third request must bounce as overloaded.
     The submissions are staggered on the server's own pool gauges —
     submitting both sleeps at once would race the worker's dequeue. *)
  with_server ~workers:1 ~queue_capacity:1 (fun server socket ->
      let pool_gauge key =
        match J.find (Srv.Server.stats_json server) "pool" with
        | Some pool -> (
            match J.find pool key with Some (J.Int n) -> n | _ -> -1)
        | None -> -1
      in
      let rec wait_for what f n =
        if n = 0 then Alcotest.fail ("timed out waiting for " ^ what);
        if not (f ()) then (
          Thread.delay 0.01;
          wait_for what f (n - 1))
      in
      let sleeper id secs =
        Thread.create
          (fun () ->
            ignore (Srv.Client.one_shot ~socket (P.request ~id (P.Sleep secs))))
          ()
      in
      let a = sleeper "a" 1.0 in
      wait_for "first sleep running" (fun () -> pool_gauge "running" = 1) 300;
      let b = sleeper "b" 1.0 in
      wait_for "second sleep queued" (fun () -> pool_gauge "queued" = 1) 300;
      let resp = call_ok socket (P.request (P.Sleep 0.1)) in
      Alcotest.(check string) "third sleep bounced" "overloaded"
        (P.status_name resp.P.status);
      (* overload is transient: once the backlog drains, work is admitted *)
      Thread.join a;
      Thread.join b;
      let after = call_ok socket (P.request (P.Sleep 0.01)) in
      Alcotest.(check string) "admitted after drain" "ok"
        (P.status_name after.P.status))

let test_server_graceful_drain () =
  let socket_path = fresh_socket_path () in
  let config =
    {
      (Srv.Server.default_config ~socket_path) with
      Srv.Server.workers = 1;
      test_ops = true;
    }
  in
  let server = Srv.Server.start config in
  (* park a request in flight, then begin the drain while it runs *)
  let in_flight = ref (Error "never ran") in
  let runner =
    Thread.create
      (fun () ->
        in_flight :=
          Srv.Client.one_shot ~socket:socket_path (P.request (P.Sleep 0.5)))
      ()
  in
  Thread.delay 0.15;
  Srv.Server.stop server;
  Thread.join runner;
  (* the in-flight request finished despite the drain *)
  (match !in_flight with
  | Ok resp ->
      Alcotest.(check string) "in-flight request completed" "ok"
        (P.status_name resp.P.status)
  | Error m -> Alcotest.fail ("in-flight request lost in drain: " ^ m));
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists socket_path);
  (* a new connection is refused after the drain *)
  (match Srv.Client.connect socket_path with
  | Error _ -> ()
  | Ok conn ->
      Srv.Client.close conn;
      Alcotest.fail "connected to a stopped server");
  (* stop is idempotent *)
  Srv.Server.stop server

let test_server_shutdown_op () =
  let socket_path = fresh_socket_path () in
  let config = Srv.Server.default_config ~socket_path in
  let server = Srv.Server.start config in
  let resp =
    match Srv.Client.one_shot ~socket:socket_path (P.request P.Shutdown) with
    | Ok r -> r
    | Error m -> Alcotest.fail m
  in
  Alcotest.(check string) "shutdown acknowledged" "ok"
    (P.status_name resp.P.status);
  (* the op flags the stop; the host (here: the test) performs the drain *)
  let rec wait n =
    if n = 0 then Alcotest.fail "shutdown op never flagged the stop";
    if not (Srv.Server.stop_requested server) then (
      Thread.delay 0.01;
      wait (n - 1))
  in
  wait 500;
  Srv.Server.stop server;
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists socket_path)

let test_sleep_gated_behind_test_ops () =
  with_server ~test_ops:false (fun _server socket ->
      let resp = call_ok socket (P.request (P.Sleep 0.01)) in
      Alcotest.(check string) "sleep refused without test_ops" "error"
        (P.status_name resp.P.status);
      let faulty =
        call_ok socket (P.request ~fault:"worker_kill" P.Ping)
      in
      Alcotest.(check string) "fault refused without test_ops" "error"
        (P.status_name faulty.P.status))

(* ---------- crash-safety: respawn, quarantine, deadlines ---------- *)

let test_server_worker_kill_respawn_and_quarantine () =
  with_server ~workers:2 (fun server socket ->
      let req =
        P.request ~strategy:"direct@siege" ~benchmark:"alu2" ~width:5 P.Route
      in
      (* an answer cached at another width of the same CNF *)
      let cached = { req with P.width = 6 } in
      let first = call_ok socket cached in
      Alcotest.(check string) "answer to cache" "ok"
        (P.status_name first.P.status);
      let kill () =
        let resp = call_ok socket { req with P.fault = Some "worker_kill" } in
        Alcotest.(check string) "killed request errors, never hangs" "error"
          (P.status_name resp.P.status);
        Alcotest.(check bool) "error names the worker death" true
          (match resp.P.message with
          | Some m ->
              String.length m >= 6 && String.sub m 0 6 = "worker"
          | None -> false)
      in
      kill ();
      (* the error response is written before the dying domain runs its
         death handler — poll the death counter, not just the gauge *)
      wait_until "first death and respawn"
        (fun () ->
          server_pool_gauge server "deaths" = 1
          && server_pool_gauge server "workers" = 2)
        500;
      kill ();
      wait_until "second death and respawn"
        (fun () ->
          server_pool_gauge server "deaths" = 2
          && server_pool_gauge server "workers" = 2)
        500;
      Alcotest.(check int) "two deaths recorded" 2
        (server_pool_gauge server "deaths");
      Alcotest.(check int) "two respawns recorded" 2
        (server_pool_gauge server "respawns");
      (* two deaths on the same CNF: the problem is now quarantined — the
         same request without a fault is refused without touching the
         pool, and the pool keeps its workers *)
      let resp = call_ok socket req in
      Alcotest.(check string) "quarantined request errors" "error"
        (P.status_name resp.P.status);
      let says_quarantined (resp : P.response) =
        match resp.P.message with
        | Some m -> String.length m >= 11 && String.sub m 0 11 = "quarantined"
        | None -> false
      in
      Alcotest.(check bool) "error says quarantined" true
        (says_quarantined resp);
      (* quarantine is checked before the cache: the cached width is
         refused too *)
      let refused = call_ok socket cached in
      Alcotest.(check string) "cached width refused" "error"
        (P.status_name refused.P.status);
      Alcotest.(check bool) "cached width quarantined" true
        (says_quarantined refused);
      Alcotest.(check int) "no further death" 2
        (server_pool_gauge server "deaths");
      (* the supervisor invariant: pool restored to configured size *)
      (match
         Eng.Chaos.Server.check_invariants ~expected_workers:2
           ~stats:(Srv.Server.stats_json server)
           ~pairs:[]
       with
      | Ok () -> ()
      | Error m -> Alcotest.fail m);
      (* other problems are unaffected by the quarantine *)
      let pong = call_ok socket (P.request P.Ping) in
      Alcotest.(check string) "server still serves" "ok"
        (P.status_name pong.P.status))

let test_server_deadline_exceeded () =
  with_server ~workers:1 (fun server socket ->
      (* warm the session so the deadline request's queue wait is the only
         variable under test; the request under test asks a width the
         warm-up did not, since a cache hit never queues *)
      let req =
        P.request ~strategy:"direct@siege" ~benchmark:"alu2" ~width:5 P.Route
      in
      let uncached = { req with P.width = 6 } in
      let first = call_ok socket req in
      Alcotest.(check string) "warm-up ok" "ok" (P.status_name first.P.status);
      (* the warm-up stays in the running gauge until its worker loops
         back to the queue (the response is written first) — drain it so
         the next running=1 really is the sleeper *)
      wait_until "warm-up drained"
        (fun () -> server_pool_gauge server "running" = 0)
        300;
      (* occupy the only worker, then queue a request whose deadline will
         pass while it waits *)
      let sleeper =
        Thread.create
          (fun () ->
            ignore (Srv.Client.one_shot ~socket (P.request (P.Sleep 0.5))))
          ()
      in
      wait_until "sleeper running"
        (fun () -> server_pool_gauge server "running" = 1)
        300;
      let hit = call_ok socket { req with P.deadline_ms = Some 50 } in
      Alcotest.(check string) "cache hit answered past the busy worker" "ok"
        (P.status_name hit.P.status);
      Alcotest.(check (option string)) "served from cache" (Some "cache")
        (Option.map P.served_by_name hit.P.served_by);
      let late = call_ok socket { req with P.deadline_ms = Some 0 } in
      Alcotest.(check string) "hit past its deadline on arrival -> shed"
        "deadline_exceeded" (P.status_name late.P.status);
      let shed = call_ok socket { uncached with P.deadline_ms = Some 50 } in
      Alcotest.(check string) "expired in queue -> shed" "deadline_exceeded"
        (P.status_name shed.P.status);
      Thread.join sleeper;
      (* a generous deadline passes through untouched (cache hit) *)
      let ok = call_ok socket { req with P.deadline_ms = Some 60_000 } in
      Alcotest.(check string) "generous deadline ok" "ok"
        (P.status_name ok.P.status);
      Alcotest.(check bool) "deadline shed counted" true
        (match J.find (Srv.Server.stats_json server) "deadline_exceeded" with
        | Some (J.Int n) -> n >= 1
        | _ -> false))

(* ---------- crash-safety: journal restart and stale sockets ---------- *)

let test_server_journal_survives_restart () =
  let path = tmp_journal () in
  Fun.protect
    ~finally:(fun () -> journal_cleanup path)
    (fun () ->
      let req =
        P.request ~strategy:"direct@siege" ~benchmark:"alu2" ~width:5 P.Route
      in
      let first_run =
        with_server ~workers:1 ~cache_file:path (fun _server socket ->
            let resp = call_ok socket req in
            Alcotest.(check string) "decisive answer" "ok"
              (P.status_name resp.P.status);
            match resp.P.run with
            | Some run -> J.to_string run
            | None -> Alcotest.fail "route response without run payload")
      in
      Alcotest.(check bool) "journal captured the answer" true
        (count_lines path >= 1);
      (* a "restarted" server on the same journal serves the answer from
         cache, byte-identically, without running a solver *)
      with_server ~workers:1 ~cache_file:path (fun server socket ->
          Alcotest.(check bool) "entries replayed at startup" true
            (Srv.Server.replayed server >= 1);
          let resp = call_ok socket req in
          Alcotest.(check bool) "served from cache" true
            (resp.P.served_by = Some P.Cache);
          let second_run =
            match resp.P.run with
            | Some run -> J.to_string run
            | None -> Alcotest.fail "cached response without run payload"
          in
          match
            Eng.Chaos.Server.check_invariants ~expected_workers:1
              ~stats:(Srv.Server.stats_json server)
              ~pairs:[ (first_run, second_run) ]
          with
          | Ok () -> ()
          | Error m -> Alcotest.fail m))

let test_server_journal_lock_excludes_second_server () =
  let path = tmp_journal () in
  Fun.protect
    ~finally:(fun () -> journal_cleanup path)
    (fun () ->
      with_server ~cache_file:path (fun _server _socket ->
          let config =
            {
              (Srv.Server.default_config ~socket_path:(fresh_socket_path ()))
              with
              Srv.Server.cache_file = Some path;
            }
          in
          match Srv.Server.start config with
          | exception Failure _ -> ()
          | second ->
              Srv.Server.stop second;
              Alcotest.fail "two live servers shared one cache journal"))

let test_server_torn_journal_fault () =
  let path = tmp_journal () in
  Fun.protect
    ~finally:(fun () -> journal_cleanup path)
    (fun () ->
      let req =
        P.request ~strategy:"direct@siege" ~benchmark:"alu2" ~width:5 P.Route
      in
      with_server ~workers:1 ~cache_file:path (fun _server socket ->
          let resp = call_ok socket req in
          Alcotest.(check string) "decisive answer" "ok"
            (P.status_name resp.P.status);
          (* tear the journal mid-flight, as a kill mid-append would *)
          let torn = call_ok socket (P.request ~fault:"torn_journal" P.Ping) in
          Alcotest.(check string) "fault carrier still answered" "ok"
            (P.status_name torn.P.status));
      (* the restarted server replays nothing (the only line is torn) but
         starts, counts the damage, and serves fresh answers *)
      with_server ~workers:1 ~cache_file:path (fun server socket ->
          Alcotest.(check int) "torn line skipped, not fatal" 0
            (Srv.Server.replayed server);
          let resp = call_ok socket req in
          Alcotest.(check string) "re-solved after data loss" "ok"
            (P.status_name resp.P.status);
          Alcotest.(check bool) "not from cache" true
            (resp.P.served_by <> Some P.Cache)))

let test_server_reclaims_stale_socket () =
  let socket_path = fresh_socket_path () in
  (* the residue of a SIGKILL'd server: a bound-then-abandoned socket
     file nobody is listening on *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX socket_path);
  Unix.listen fd 1;
  Unix.close fd;
  Alcotest.(check bool) "stale socket file present" true
    (Sys.file_exists socket_path);
  let server = Srv.Server.start (Srv.Server.default_config ~socket_path) in
  Fun.protect
    ~finally:(fun () -> Srv.Server.stop server)
    (fun () ->
      match Srv.Client.one_shot ~socket:socket_path (P.request P.Ping) with
      | Ok resp ->
          Alcotest.(check string) "reclaimed and serving" "ok"
            (P.status_name resp.P.status)
      | Error m -> Alcotest.fail m)

let test_server_never_steals_live_socket () =
  with_server (fun _server socket ->
      match Srv.Server.start (Srv.Server.default_config ~socket_path:socket) with
      | exception Failure _ -> ()
      | second ->
          Srv.Server.stop second;
          Alcotest.fail "second server bound over a live one");
  (* and a foreign non-socket file is never unlinked *)
  let decoy = Filename.temp_file "fpgasat-not-a-socket" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove decoy with Sys_error _ -> ())
    (fun () ->
      match Srv.Server.start (Srv.Server.default_config ~socket_path:decoy) with
      | exception Failure _ ->
          Alcotest.(check bool) "decoy file untouched" true
            (Sys.file_exists decoy)
      | second ->
          Srv.Server.stop second;
          Alcotest.fail "server bound over a regular file")

(* ---------- crash-safety: hostile clients ---------- *)

let raw_connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  (* a server that never answers fails the test instead of hanging it *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
  fd

let write_all fd s = ignore (Unix.write_substring fd s 0 (String.length s))

let request_line req = J.to_string (P.request_to_json req) ^ "\n"

let server_counter server key =
  match J.find (Srv.Server.stats_json server) key with
  | Some (J.Int n) -> n
  | _ -> Alcotest.fail ("stats without " ^ key)

(* A client that hangs up before its answer: the server's write to the
   closed socket must end that connection only, not the process. *)
let test_server_survives_hang_up () =
  with_server ~workers:1 (fun server socket ->
      let fd = raw_connect socket in
      write_all fd (request_line (P.request ~benchmark:"alu2" P.Min_width));
      Unix.close fd;
      wait_until "min_width ran"
        (fun () ->
          server_counter server "warm" = 1
          && server_pool_gauge server "running" = 0)
        500;
      (* the conn thread writes the answer once its ticket resolves *)
      Thread.delay 0.2;
      let pong = call_ok socket (P.request P.Ping) in
      Alcotest.(check string) "server still answers" "ok"
        (P.status_name pong.P.status);
      Alcotest.(check int) "both requests counted" 2
        (server_counter server "requests"))

(* A line of exactly the cap is read and answered; one byte more gets one
   error line and the connection closes without the server reading on. *)
let test_server_request_line_cap () =
  with_server (fun server socket ->
      let cap = Srv.Server.max_request_line in
      let fd = raw_connect socket in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let ic = Unix.in_channel_of_descr fd in
          let reply () =
            match P.parse_response (input_line ic) with
            | Ok resp -> resp
            | Error m -> Alcotest.fail m
          in
          let ping = request_line (P.request ~id:"at-cap" P.Ping) in
          let ping = String.sub ping 0 (String.length ping - 1) in
          write_all fd (ping ^ String.make (cap - String.length ping) ' ' ^ "\n");
          let pong = reply () in
          Alcotest.(check string) "line at the cap answered" "ok"
            (P.status_name pong.P.status);
          Alcotest.(check (option string)) "its id" (Some "at-cap")
            pong.P.resp_id;
          let errors0 = server_counter server "errors" in
          write_all fd (String.make (cap + 1) 'x');
          let refused = reply () in
          Alcotest.(check string) "line over the cap refused" "error"
            (P.status_name refused.P.status);
          Alcotest.(check int) "counted as an error" (errors0 + 1)
            (server_counter server "errors");
          Alcotest.(check bool) "connection closed" true
            (match input_line ic with
            | _ -> false
            | exception (End_of_file | Sys_error _) -> true));
      let pong = call_ok socket (P.request P.Ping) in
      Alcotest.(check string) "server still answers" "ok"
        (P.status_name pong.P.status))

(* A request whose \u escape is not four hex digits is a protocol error:
   one error line, counted, and the connection goes on answering. *)
let test_server_bad_escape_is_an_error () =
  with_server (fun server socket ->
      let fd = raw_connect socket in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let ic = Unix.in_channel_of_descr fd in
          let reply () =
            match P.parse_response (input_line ic) with
            | Ok resp -> resp
            | Error m -> Alcotest.fail m
          in
          let errors0 = server_counter server "errors" in
          write_all fd
            "{\"schema\":\"fpgasat.req/1\",\"op\":\"ping\",\"id\":\"\\uZZZZ\"}\n";
          let refused = reply () in
          Alcotest.(check string) "bad escape refused" "error"
            (P.status_name refused.P.status);
          Alcotest.(check int) "counted as an error" (errors0 + 1)
            (server_counter server "errors");
          write_all fd (request_line (P.request ~id:"after" P.Ping));
          let pong = reply () in
          Alcotest.(check string) "same connection still answered" "ok"
            (P.status_name pong.P.status);
          Alcotest.(check (option string)) "its id" (Some "after")
            pong.P.resp_id))

(* ---------- crash-safety: client timeouts and retry ---------- *)

let test_client_timeout_bounds_hung_server () =
  (* a listener that accepts and then never answers *)
  let socket_path = fresh_socket_path () in
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX socket_path);
  Unix.listen listener 1;
  let accepted = ref None in
  let acceptor =
    Thread.create
      (fun () ->
        match Unix.accept listener with
        | fd, _ -> accepted := Some fd
        | exception Unix.Unix_error _ -> ())
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      (match !accepted with Some fd -> (try Unix.close fd with _ -> ()) | None -> ());
      (try Unix.close listener with _ -> ());
      (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
      Thread.join acceptor)
    (fun () ->
      let t0 = Unix.gettimeofday () in
      match
        Srv.Client.one_shot ~timeout:0.2 ~socket:socket_path
          (P.request P.Ping)
      with
      | Ok _ -> Alcotest.fail "mute server produced a response"
      | Error _ ->
          let elapsed = Unix.gettimeofday () -. t0 in
          Alcotest.(check bool) "timed out promptly, did not hang" true
            (elapsed < 5.))

let test_client_retry_rides_out_overload () =
  with_server ~workers:1 ~queue_capacity:1 (fun server socket ->
      (* warm the session so the retried request is served quickly once
         admitted; the retried request asks a width the warm-up did not,
         since a cache hit never queues *)
      let req =
        P.request ~strategy:"direct@siege" ~benchmark:"alu2" ~width:5 P.Route
      in
      let uncached = { req with P.width = 6 } in
      let first = call_ok socket req in
      Alcotest.(check string) "warm-up ok" "ok" (P.status_name first.P.status);
      wait_until "warm-up drained"
        (fun () -> server_pool_gauge server "running" = 0)
        300;
      (* saturate: one sleep running, one queued *)
      let sleeper secs =
        Thread.create
          (fun () ->
            ignore (Srv.Client.one_shot ~socket (P.request (P.Sleep secs))))
          ()
      in
      let a = sleeper 0.4 in
      wait_until "sleeper running"
        (fun () -> server_pool_gauge server "running" = 1)
        300;
      let b = sleeper 0.4 in
      wait_until "sleeper queued"
        (fun () -> server_pool_gauge server "queued" = 1)
        300;
      (* a cache hit is answered at once; a plain call that needs a
         worker bounces; the retrying call rides the backlog out *)
      let hit = call_ok socket req in
      Alcotest.(check string) "cache hit answered at a full queue" "ok"
        (P.status_name hit.P.status);
      Alcotest.(check (option string)) "served from cache" (Some "cache")
        (Option.map P.served_by_name hit.P.served_by);
      let bounced = call_ok socket uncached in
      Alcotest.(check string) "plain call overloaded" "overloaded"
        (P.status_name bounced.P.status);
      (match
         Srv.Client.call_with_retry ~retries:8 ~backoff:0.05 ~seed:42 ~socket
           uncached
       with
      | Ok resp ->
          Alcotest.(check string) "retry eventually admitted" "ok"
            (P.status_name resp.P.status)
      | Error m -> Alcotest.fail ("retry gave up: " ^ m));
      Thread.join a;
      Thread.join b)

let test_client_never_retries_non_idempotent () =
  Alcotest.(check bool) "route is idempotent" true (P.idempotent P.Route);
  Alcotest.(check bool) "stats is idempotent" true (P.idempotent P.Stats);
  Alcotest.(check bool) "shutdown is not" false (P.idempotent P.Shutdown);
  Alcotest.(check bool) "sleep is not" false (P.idempotent (P.Sleep 1.));
  (* a non-idempotent request against a dead socket fails once, no retry
     loop: the call returns well before the backoff schedule would *)
  let t0 = Unix.gettimeofday () in
  (match
     Srv.Client.call_with_retry ~retries:8 ~backoff:0.2
       ~socket:(fresh_socket_path ()) (P.request P.Shutdown)
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "response from a dead socket");
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "no backoff schedule was slept" true (elapsed < 0.2)

let qtests = List.map QCheck_alcotest.to_alcotest [ qcheck_structural_hash ]

let protocol_qtests =
  List.map QCheck_alcotest.to_alcotest [ qcheck_route_ok_line ]

let outside_qtests =
  Outside_bytes.seeded_qtests
    (List.concat_map Outside_bytes.never_raises outside_readers)

let cache_qtests =
  List.map QCheck_alcotest.to_alcotest [ qcheck_cache_concurrent ]

let () =
  Alcotest.run "server"
    [
      ( "pool",
        [
          Alcotest.test_case "persistent pool runs submissions" `Quick
            test_pool_runs_submissions;
          Alcotest.test_case "raising thunk is isolated" `Quick
            test_pool_isolates_raising_thunk;
          Alcotest.test_case "admission control" `Quick
            test_pool_admission_control;
          Alcotest.test_case "shutdown drains the backlog" `Quick
            test_pool_shutdown_drains_backlog;
          Alcotest.test_case "killed worker is respawned" `Quick
            test_pool_respawns_killed_worker;
          Alcotest.test_case "restart budget exhausts" `Quick
            test_pool_restart_budget_exhausts;
        ] );
      ( "cache",
        Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction
        :: Alcotest.test_case "re-add refreshes" `Quick
             test_cache_refresh_on_add
        :: cache_qtests );
      ( "journal",
        [
          Alcotest.test_case "replay and compaction" `Quick
            test_journal_replay_and_compaction;
          Alcotest.test_case "torn tail tolerated" `Quick
            test_journal_tolerates_torn_tail;
          Alcotest.test_case "bad escape counted torn" `Quick
            test_journal_bad_escape_counted_torn;
          Alcotest.test_case "capacity truncates replay" `Quick
            test_journal_capacity_truncates_replay;
          Alcotest.test_case "pid lock excludes second writer" `Quick
            test_journal_lock_excludes_second_writer;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "server fault plans deterministic" `Quick
            test_chaos_server_plan_deterministic;
          Alcotest.test_case "invariant checker" `Quick
            test_chaos_server_invariant_checker;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "request JSON round-trip" `Quick
            test_protocol_request_roundtrip;
          Alcotest.test_case "response JSON round-trip" `Quick
            test_protocol_response_roundtrip;
          Alcotest.test_case "malformed requests rejected" `Quick
            test_protocol_rejects_malformed;
          Alcotest.test_case "budget signatures distinct" `Quick
            test_budget_signature_distinguishes;
        ]
        @ protocol_qtests );
      ("outside bytes", outside_qtests);
      ("hash", Alcotest.test_case "structural hash vs provenance" `Quick
          test_structural_hash_ignores_provenance
        :: qtests );
      ( "warm",
        [
          Alcotest.test_case "ladder agrees with cold flow" `Slow
            test_warm_agrees_with_cold;
          Alcotest.test_case "warm min_width agrees with search" `Slow
            test_warm_min_width_agrees_with_search;
          Alcotest.test_case "warm min_width agrees with minimal_colors"
            `Slow test_warm_min_width_agrees_with_minimal_colors;
          Alcotest.test_case "fewest colours bound certified answers" `Slow
            test_session_fewest_colors;
          Alcotest.test_case "bounds-only session is small" `Quick
            test_session_bounds_only_is_small;
          Alcotest.test_case "sibling sessions share" `Slow
            test_sibling_sessions_share;
          Alcotest.test_case "serves from the best colouring" `Slow
            test_session_serves_from_best_coloring;
        ] );
      ( "server",
        [
          Alcotest.test_case "ping and stats" `Quick test_server_ping_and_stats;
          Alcotest.test_case "cache hit on repeat" `Slow
            test_server_cache_hit_on_repeat;
          Alcotest.test_case "cache hits skip the pool" `Slow
            test_server_hits_skip_the_pool;
          Alcotest.test_case "certified routes warm and cold" `Slow
            test_server_certified_warm_and_cold;
          Alcotest.test_case "stats counts solvers" `Slow
            test_server_counts_solvers;
          Alcotest.test_case "hits do not wait for a build" `Slow
            test_server_hits_during_a_build;
          Alcotest.test_case "concurrent clients" `Slow
            test_server_concurrent_clients;
          Alcotest.test_case "bad requests are protocol errors" `Quick
            test_server_rejects_bad_requests;
          Alcotest.test_case "overload" `Quick test_server_overload;
          Alcotest.test_case "graceful drain" `Quick test_server_graceful_drain;
          Alcotest.test_case "shutdown op" `Quick test_server_shutdown_op;
          Alcotest.test_case "sleep gated behind test_ops" `Quick
            test_sleep_gated_behind_test_ops;
        ] );
      ( "crash-safety",
        [
          Alcotest.test_case "worker kill: respawn and quarantine" `Slow
            test_server_worker_kill_respawn_and_quarantine;
          Alcotest.test_case "deadline exceeded in queue" `Slow
            test_server_deadline_exceeded;
          Alcotest.test_case "journal survives restart" `Slow
            test_server_journal_survives_restart;
          Alcotest.test_case "journal lock excludes second server" `Quick
            test_server_journal_lock_excludes_second_server;
          Alcotest.test_case "torn journal fault" `Slow
            test_server_torn_journal_fault;
          Alcotest.test_case "stale socket reclaimed" `Quick
            test_server_reclaims_stale_socket;
          Alcotest.test_case "live socket never stolen" `Quick
            test_server_never_steals_live_socket;
          Alcotest.test_case "client hang-up ends only its connection" `Quick
            test_server_survives_hang_up;
          Alcotest.test_case "request line cap" `Quick
            test_server_request_line_cap;
          Alcotest.test_case "bad escape is an error" `Quick
            test_server_bad_escape_is_an_error;
          Alcotest.test_case "client timeout bounds a hung server" `Quick
            test_client_timeout_bounds_hung_server;
          Alcotest.test_case "client retry rides out overload" `Slow
            test_client_retry_rides_out_overload;
          Alcotest.test_case "non-idempotent never retried" `Quick
            test_client_never_retries_non_idempotent;
        ] );
    ]

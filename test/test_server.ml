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

let test_warm_agrees_with_cold () =
  let strat = strategy "direct@siege" in
  let session = Srv.Session.create ~benchmark:"alu2" strat alu2 in
  let lower, upper = Srv.Session.bounds session in
  Alcotest.(check bool) "bounds sane" true (1 <= lower && lower <= upper);
  (* probe a band of widths around the transition *)
  let cnf_size =
    C.Incremental_width.(
      cnf_size (prepare ~strategy:strat alu2.F.Benchmarks.graph))
  in
  (* widths >= upper take the greedy branch, the rest the solver *)
  let widths =
    List.filter (fun w -> w >= 1) [ upper + 1; upper; upper - 1; upper - 2 ]
  in
  List.iter
    (fun w ->
      let ctx what = Printf.sprintf "width %d %s" w what in
      let warm = Srv.Session.route_warm session ~width:w in
      let metered = Srv.Session.route_warm ~telemetry:true session ~width:w in
      let cold =
        C.Flow.(submit (default_request |> with_strategy strat))
          alu2.F.Benchmarks.route ~width:w
      in
      let name o = C.Flow.outcome_name o in
      Alcotest.(check string) (ctx "verdict") (name cold.C.Flow.outcome)
        (name warm.C.Flow.outcome);
      Alcotest.(check string) (ctx "metered verdict") (name warm.C.Flow.outcome)
        (name metered.C.Flow.outcome);
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
        [ warm; metered ];
      (* below the greedy bound the ladder drives the solver through
         assumption selector levels; the max_decision_level watermark must
         count them even when no free decision happens (it used to track
         only free decisions, reading 0 on assumption-driven queries) *)
      (match warm.C.Flow.outcome with
      | (C.Flow.Routable _ | C.Flow.Unroutable) when w < upper ->
          Alcotest.(check bool)
            (Printf.sprintf "width %d decision levels counted" w)
            true
            (warm.C.Flow.solver_stats.Sat.Stats.max_decision_level >= 1)
      | _ -> ());
      match warm.C.Flow.outcome with
      | C.Flow.Routable d ->
          (match
             F.Detailed_route.verify alu2.F.Benchmarks.route ~width:w
               d.F.Detailed_route.tracks
           with
          | Ok () -> ()
          | Error v ->
              Alcotest.fail
                (Format.asprintf "warm routing invalid: %a"
                   F.Detailed_route.pp_violation v))
      | C.Flow.Unroutable | C.Flow.Timeout | C.Flow.Memout -> ())
    widths

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
   walk over the ladder. *)
let test_warm_min_width_agrees_with_minimal_colors () =
  List.iter
    (fun sname ->
      let strat = strategy sname in
      let session = Srv.Session.create ~benchmark:"alu2" strat alu2 in
      match
        ( Srv.Session.min_width session,
          C.Incremental_width.minimal_colors ~strategy:strat
            alu2.F.Benchmarks.graph )
      with
      | Ok warm, Ok search ->
          Alcotest.(check int) (sname ^ ": same w_min")
            search.C.Incremental_width.w_min warm
      | Error m, _ | _, Error m -> Alcotest.fail (sname ^ ": " ^ m))
    [ "direct@siege"; "ITE-linear-2+muldirect/s1" ]

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

(* Certified routes on both sides of the session's colouring boundary.
   alu2 under the paper's best strategy has clique bound 5, w_min 6 and
   DSATUR bound 7. A certified route at a width the session has coloured
   is answered warm and certified there: from the stored colouring at the
   DSATUR bound (verify alone), from the ladder's checked model once
   min_width has coloured 6. Below, at 5, it takes the cold pipeline and
   returns a checked refutation. Each certified request moves exactly one
   of the [warm] and [cold] counters. *)
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
          (dwarm, dcold)
      in
      certified 7 ~served_by:"warm" ~outcome:"routable";
      certified 5 ~served_by:"cold" ~outcome:"unroutable";
      let mw =
        call_ok socket (P.request ~strategy ~benchmark:"alu2" P.Min_width)
      in
      Alcotest.(check (option int)) "min_width" (Some 6) mw.P.min_width;
      certified 6 ~served_by:"warm" ~outcome:"routable")

(* The session side of the same boundary: fewest_colors starts at the
   DSATUR bound and falls with routable answers; a warm certified answer
   at or above it carries a checked model, and a warm unroutable answer is
   never certified, since it holds only under selector assumptions. *)
let test_session_fewest_colors () =
  let strat = strategy "ITE-linear-2+muldirect/s1@siege" in
  let session = Srv.Session.create ~benchmark:"alu2" strat alu2 in
  let _, upper = Srv.Session.bounds session in
  Alcotest.(check int) "starts at the DSATUR bound" upper
    (Srv.Session.fewest_colors session);
  let run = Srv.Session.route_warm ~certify:true session ~width:6 in
  Alcotest.(check string) "w_min is routable" "routable"
    (C.Flow.outcome_name run.C.Flow.outcome);
  Alcotest.(check (option bool)) "model and routing checked" (Some true)
    run.C.Flow.certified;
  Alcotest.(check bool) "lowered by a warm routable answer" true
    (Srv.Session.fewest_colors session <= 6);
  let refuted = Srv.Session.route_warm ~certify:true session ~width:5 in
  Alcotest.(check string) "below w_min" "unroutable"
    (C.Flow.outcome_name refuted.C.Flow.outcome);
  Alcotest.(check (option bool)) "warm refutation not certified" (Some false)
    refuted.C.Flow.certified;
  Alcotest.(check (option bool)) "uncertified by default" None
    (Srv.Session.route_warm session ~width:6).C.Flow.certified

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

let server_pool_gauge server key =
  match J.find (Srv.Server.stats_json server) "pool" with
  | Some pool -> (
      match J.find pool key with Some (J.Int n) -> n | _ -> -1)
  | None -> -1

let test_server_worker_kill_respawn_and_quarantine () =
  with_server ~workers:2 (fun server socket ->
      let req =
        P.request ~strategy:"direct@siege" ~benchmark:"alu2" ~width:5 P.Route
      in
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
      Alcotest.(check bool) "error says quarantined" true
        (match resp.P.message with
        | Some m -> String.length m >= 11 && String.sub m 0 11 = "quarantined"
        | None -> false);
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
         variable under test *)
      let req =
        P.request ~strategy:"direct@siege" ~benchmark:"alu2" ~width:5 P.Route
      in
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
      let shed = call_ok socket { req with P.deadline_ms = Some 50 } in
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
      (* warm the session so the retried request is served instantly once
         admitted *)
      let req =
        P.request ~strategy:"direct@siege" ~benchmark:"alu2" ~width:5 P.Route
      in
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
      (* a plain call bounces; the retrying call rides the backlog out *)
      let bounced = call_ok socket req in
      Alcotest.(check string) "plain call overloaded" "overloaded"
        (P.status_name bounced.P.status);
      (match
         Srv.Client.call_with_retry ~retries:8 ~backoff:0.05 ~seed:42 ~socket
           req
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
        ] );
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
        ] );
      ( "server",
        [
          Alcotest.test_case "ping and stats" `Quick test_server_ping_and_stats;
          Alcotest.test_case "cache hit on repeat" `Slow
            test_server_cache_hit_on_repeat;
          Alcotest.test_case "certified routes warm and cold" `Slow
            test_server_certified_warm_and_cold;
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
          Alcotest.test_case "client timeout bounds a hung server" `Quick
            test_client_timeout_bounds_hung_server;
          Alcotest.test_case "client retry rides out overload" `Slow
            test_client_retry_rides_out_overload;
          Alcotest.test_case "non-idempotent never retried" `Quick
            test_client_never_retries_non_idempotent;
        ] );
    ]

module J = Fpgasat_obs.Json
module Eng = Fpgasat_engine

type 'a journal = {
  path : string;
  to_json : 'a -> J.t;
  mutable oc : out_channel option;
}

type 'a entry = { value : 'a; mutable last_use : int }

type 'a t = {
  capacity : int;
  tbl : (string, 'a entry) Hashtbl.t;
  mutex : Mutex.t;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable journal : 'a journal option;
  mutable replayed : int;
  mutable torn : int;
}

let create ?(capacity = 256) () =
  {
    capacity = max 1 capacity;
    tbl = Hashtbl.create 64;
    mutex = Mutex.create ();
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    journal = None;
    replayed = 0;
    torn = 0;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let lookup t key ~counted =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some e ->
          t.tick <- t.tick + 1;
          e.last_use <- t.tick;
          if counted then t.hits <- t.hits + 1;
          Some e.value
      | None ->
          if counted then t.misses <- t.misses + 1;
          None)

let find t key = lookup t key ~counted:true
let recheck t key = lookup t key ~counted:false

(* O(capacity) scan at eviction: the cache is small (hundreds) and only
   full inserts pay it, so a linked-list LRU would be complexity without a
   measurable return. *)
let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun key e acc ->
        match acc with
        | Some (_, best) when best <= e.last_use -> acc
        | _ -> Some (key, e.last_use))
      t.tbl None
  in
  match victim with
  | Some (key, _) ->
      Hashtbl.remove t.tbl key;
      t.evictions <- t.evictions + 1
  | None -> ()

(* ---------- journal line codec ---------- *)

(* A journal line is the value's own JSON object with one extra
   [cache_key] field appended — for the server's run-record values the
   file stays parseable as plain fpgasat.run/1 JSONL. Non-object values
   (and objects that already carry a [cache_key]) are wrapped instead. *)
let line_of_entry to_json key v =
  match to_json v with
  | J.Obj fields when not (List.mem_assoc "cache_key" fields) ->
      J.Obj (fields @ [ ("cache_key", J.String key) ])
  | other -> J.Obj [ ("cache_key", J.String key); ("value", other) ]

let entry_of_line j =
  match j with
  | J.Obj [ ("cache_key", J.String key); ("value", v) ] -> Some (key, v)
  | J.Obj fields -> (
      match List.assoc_opt "cache_key" fields with
      | Some (J.String key) ->
          Some
            (key, J.Obj (List.filter (fun (k, _) -> k <> "cache_key") fields))
      | _ -> None)
  | _ -> None

(* insert without touching the journal (replay, and shared by [add]) *)
let add_locked t key value =
  t.tick <- t.tick + 1;
  (match Hashtbl.find_opt t.tbl key with
  | Some _ -> Hashtbl.remove t.tbl key
  | None -> if Hashtbl.length t.tbl >= t.capacity then evict_lru t);
  Hashtbl.replace t.tbl key { value; last_use = t.tick }

let append_journal t key value =
  match t.journal with
  | None | Some { oc = None; _ } -> ()
  | Some ({ oc = Some oc; _ } as jr) -> (
      match
        output_string oc (J.to_string (line_of_entry jr.to_json key value));
        output_char oc '\n';
        (* WAL discipline: the line reaches the OS before the response that
           promises the answer leaves the server *)
        flush oc
      with
      | () -> ()
      | exception Sys_error _ ->
          (* a dead disk must degrade the cache to in-memory-only, not take
             requests down with it *)
          (try close_out_noerr oc with _ -> ());
          jr.oc <- None)

let add t key value =
  locked t (fun () ->
      add_locked t key value;
      append_journal t key value)

(* ---------- journal attach / replay ---------- *)

(* Oldest-first, so re-journaling preserves relative recency on the next
   replay. *)
let entries_by_age t =
  Hashtbl.fold (fun key e acc -> (key, e) :: acc) t.tbl []
  |> List.sort (fun (_, a) (_, b) -> compare a.last_use b.last_use)

(* Replay is deliberately lax: a torn final line (the mark of a SIGKILL
   mid-append) and any other unparseable or key-less line are skipped and
   counted, never fatal — recovery must not be able to fail. After replay
   the journal is compacted: the surviving entries (at most [capacity];
   later lines superseded earlier ones through ordinary LRU adds) are
   rewritten to a temp file that atomically replaces the journal, so dead
   entries and the torn tail are gone and the file is bounded again. *)
let attach_journal t ~path ~to_json ~of_json =
  locked t (fun () ->
      if t.journal <> None then Error "cache already has a journal attached"
      else
        match Eng.Lockfile.acquire path with
        | exception Sys_error m -> Error m
        | () -> (
            t.replayed <- 0;
            t.torn <- 0;
            (if Sys.file_exists path then
               let ic = open_in path in
               Fun.protect
                 ~finally:(fun () -> close_in_noerr ic)
                 (fun () ->
                   try
                     while true do
                       let line = input_line ic in
                       if String.trim line <> "" then
                         match J.of_string line with
                         | Error _ -> t.torn <- t.torn + 1
                         | Ok j -> (
                             match entry_of_line j with
                             | None -> t.torn <- t.torn + 1
                             | Some (key, vj) -> (
                                 match of_json vj with
                                 | None -> t.torn <- t.torn + 1
                                 | Some v ->
                                     add_locked t key v;
                                     t.replayed <- t.replayed + 1))
                     done
                   with End_of_file -> ()));
            let tmp = path ^ ".compact" in
            match
              let oc =
                open_out_gen [ Open_wronly; Open_creat; Open_trunc ] 0o644 tmp
              in
              Fun.protect
                ~finally:(fun () -> close_out_noerr oc)
                (fun () ->
                  List.iter
                    (fun (key, e) ->
                      output_string oc
                        (J.to_string (line_of_entry to_json key e.value));
                      output_char oc '\n')
                    (entries_by_age t));
              Sys.rename tmp path
            with
            | exception Sys_error m ->
                Eng.Lockfile.release path;
                Error m
            | () -> (
                match
                  open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644
                    path
                with
                | exception Sys_error m ->
                    Eng.Lockfile.release path;
                    Error m
                | oc ->
                    t.journal <- Some { path; to_json; oc = Some oc };
                    Ok t.replayed)))

let detach_journal t =
  locked t (fun () ->
      match t.journal with
      | None -> ()
      | Some jr ->
          (match jr.oc with
          | Some oc -> close_out_noerr oc
          | None -> ());
          Eng.Lockfile.release jr.path;
          t.journal <- None)

let journal_path t =
  locked t (fun () -> Option.map (fun jr -> jr.path) t.journal)

let replayed t = locked t (fun () -> t.replayed)
let torn t = locked t (fun () -> t.torn)
let length t = locked t (fun () -> Hashtbl.length t.tbl)
let capacity t = t.capacity

let stats t =
  locked t (fun () ->
      (t.hits, t.misses, t.evictions))

(* Spans for the traced run, recorded by the benchmark around its calls
   into each layer's public functions.

   A span has a name ("layer.phase"), a start, an end and the span that
   encloses it; every span opened inside one [query] carries that query's
   id. Self time — a span's duration minus the part its children cover —
   is summed per name as spans close, so the per-layer totals cost nothing
   to read afterwards. Spans are kept in memory and written once, at exit,
   as Chrome trace JSON; past [retain_cap] spans only the totals are kept,
   and the trace file says how many it dropped.

   A recorder is single-domain: a replay on two domains uses two, one per
   Chrome thread id, and the readers below sum over a list of them. *)

module J = Fpgasat_obs.Json
module Vec = Metric.Vec

type span = {
  name : string;
  query : int;
  index : int;
  parent : int;
  start : float;
  stop : float;
}

type frame = { fname : string; fstart : float; findex : int; mutable children : float }

type t = {
  tid : int;
  mutable stack : frame list;
  mutable next_index : int;
  mutable query : int;
  mutable queries : int;
  self : (string, float ref) Hashtbl.t;
  counts : (string, int ref) Hashtbl.t;
  (* self seconds per name within the open query, and per closed query *)
  mutable current : (string * float ref) list;
  per_query : (string, float Vec.t) Hashtbl.t;
  walls : float Vec.t;
  mutable retained : span list;
  mutable kept : int;
  mutable dropped : int;
}

let retain_cap = 50_000
let root = "query"

let create ~tid =
  {
    tid;
    stack = [];
    next_index = 0;
    query = -1;
    queries = 0;
    self = Hashtbl.create 16;
    counts = Hashtbl.create 16;
    current = [];
    per_query = Hashtbl.create 16;
    walls = Vec.create 0.;
    retained = [];
    kept = 0;
    dropped = 0;
  }

let add_self t name x =
  (match Hashtbl.find_opt t.self name with
  | Some r -> r := !r +. x
  | None -> Hashtbl.add t.self name (ref x));
  if t.query >= 0 then
    match List.assoc_opt name t.current with
    | Some r -> r := !r +. x
    | None -> t.current <- (name, ref x) :: t.current

let timed t name f =
  let index = t.next_index in
  t.next_index <- index + 1;
  let parent = match t.stack with [] -> -1 | fr :: _ -> fr.findex in
  let frame = { fname = name; fstart = Unix.gettimeofday (); findex = index; children = 0. } in
  t.stack <- frame :: t.stack;
  let close () =
    let stop = Unix.gettimeofday () in
    let dur = stop -. frame.fstart in
    t.stack <- List.tl t.stack;
    (match t.stack with fr :: _ -> fr.children <- fr.children +. dur | [] -> ());
    add_self t frame.fname (dur -. frame.children);
    if t.kept < retain_cap then begin
      t.retained <-
        { name; query = t.query; index; parent; start = frame.fstart; stop }
        :: t.retained;
      t.kept <- t.kept + 1
    end
    else t.dropped <- t.dropped + 1;
    dur
  in
  match f () with
  | v -> (v, close ())
  | exception e ->
      ignore (close ());
      raise e

let span t name f = fst (timed t name f)
let span_opt t name f = match t with None -> f () | Some t -> span t name f

let count t name n =
  match Hashtbl.find_opt t.counts name with
  | Some r -> r := !r + n
  | None -> Hashtbl.add t.counts name (ref n)

let count_opt t name n = match t with None -> () | Some t -> count t name n

(* One query: a root span with a fresh id; its self time is the glue
   between the layer calls. *)
let query t f =
  t.query <- t.queries;
  t.current <- [];
  let v, wall = timed t root f in
  Vec.push t.walls wall;
  List.iter
    (fun (name, r) ->
      let samples =
        match Hashtbl.find_opt t.per_query name with
        | Some v -> v
        | None ->
            let v = Vec.create 0. in
            Hashtbl.add t.per_query name v;
            v
      in
      (* absent names read as 0 in the queries before this one *)
      while Vec.length samples < t.queries do Vec.push samples 0. done;
      Vec.push samples !r)
    t.current;
  t.queries <- t.queries + 1;
  t.query <- -1;
  v

let query_opt t f = match t with None -> f () | Some t -> query t f

(* ---------- readers over a list of recorders ---------- *)

let queries ts = List.fold_left (fun acc t -> acc + t.queries) 0 ts

let self_seconds ts name =
  List.fold_left
    (fun acc t -> match Hashtbl.find_opt t.self name with Some r -> acc +. !r | None -> acc)
    0. ts

let count_total ts name =
  List.fold_left
    (fun acc t -> match Hashtbl.find_opt t.counts name with Some r -> acc + !r | None -> acc)
    0 ts

let wall_seconds ts = List.fold_left (fun acc t -> acc +. Metric.sum (Vec.to_array t.walls)) 0. ts

let names ts =
  List.sort_uniq compare
    (List.concat_map (fun t -> Hashtbl.fold (fun k _ acc -> k :: acc) t.self []) ts)

(* Median over queries of a name's self time per query (0 where a query
   never entered it). *)
let median_per_query ts name =
  let values =
    List.concat_map
      (fun t ->
        let v =
          match Hashtbl.find_opt t.per_query name with
          | Some v -> Vec.to_array v
          | None -> [||]
        in
        Array.to_list v @ List.init (t.queries - Array.length v) (fun _ -> 0.))
      ts
  in
  Metric.median (Array.of_list values)

(* Where the traced query time went: one line per span name, self time as
   a run total, per-query median and share of the traced query time. *)
let print_table oc ts =
  let total = wall_seconds ts in
  Printf.fprintf oc "%-24s %12s %12s %8s\n" "span (self time)" "total ms" "median ms" "share";
  List.iter
    (fun name ->
      let s = self_seconds ts name in
      Printf.fprintf oc "%-24s %12.3f %12.4f %7.2f%%\n"
        (if name = root then "(query glue)" else name)
        (1000. *. s)
        (1000. *. median_per_query ts name)
        (if total > 0. then 100. *. s /. total else 0.))
    (names ts);
  Printf.fprintf oc "%-24s %12.3f over %d queries\n" "traced query time" (1000. *. total) (queries ts)

(* The per-layer metrics of the catalogue: self time and work counts per
   query from the recorders, and [extra] for those derived elsewhere. *)
let layer_metrics ts ~extra =
  let q = float_of_int (max 1 (queries ts)) in
  let per_query scale name = scale *. self_seconds ts name /. q in
  let count name = float_of_int (count_total ts name) /. q in
  let from_spans =
    [
      ("fpga.conflict_graph_ms", per_query 1e3 "fpga.conflict_graph");
      ("fpga.route_verify_ms", per_query 1e3 "fpga.route_verify");
      ("encodings.encode_ms", per_query 1e3 "encodings.encode");
      ("encodings.decode_ms", per_query 1e3 "encodings.decode");
      ("encodings.literals", count "encodings.literals");
      ("sat.load_ms", per_query 1e3 "sat.load");
      ("sat.check_model_ms", per_query 1e3 "sat.check_model");
      ("sat.words_allocated", count "sat.words_allocated");
      ("sat.search_ms", per_query 1e3 "sat.search");
      ("sat.propagations", count "sat.propagations");
      ("sat.conflicts", count "sat.conflicts");
      ("sat.decisions", count "sat.decisions");
      ( "sat.ns_per_propagation",
        match count_total ts "sat.propagations" with
        | 0 -> 0.
        | p -> 1e9 *. self_seconds ts "sat.search" /. float_of_int p );
      ("sat.drat_check_ms", per_query 1e3 "sat.drat_check");
      ("sat.proof_steps", count "sat.proof_steps");
      ("core.warm_route_ms", per_query 1e3 "core.warm_route");
      ("core.min_width_ms", per_query 1e3 "core.min_width");
      ("server.parse_us", per_query 1e6 "server.parse");
      ("server.cache_lookup_us", per_query 1e6 "server.cache_lookup");
      ("server.respond_us", per_query 1e6 "server.respond");
      ("server.cache_insert_us", per_query 1e6 "server.cache_insert");
      ("client.parse_us", per_query 1e6 "client.parse");
    ]
  in
  List.map
    (fun (name, _) ->
      let value =
        match (List.assoc_opt name extra, List.assoc_opt name from_spans) with
        | Some v, _ | None, Some v -> v
        | None, None -> 0.
      in
      (name, value))
    Metric.per_layer

(* Self time of the layer spans in each query: everything but the glue. *)
let layer_seconds_by_query t =
  let total = Array.make t.queries 0. in
  Hashtbl.iter
    (fun name samples ->
      if name <> root then
        for q = 0 to Vec.length samples - 1 do
          total.(q) <- total.(q) +. Vec.get samples q
        done)
    t.per_query;
  total

(* Chrome trace_event JSON: complete ("X") events in microseconds from the
   earliest span; [args] carries the query id and span/parent indices. *)
let to_chrome ts =
  let epoch =
    List.fold_left
      (fun acc t -> List.fold_left (fun acc s -> Float.min acc s.start) acc t.retained)
      infinity ts
  in
  let event tid s =
    let cat = match String.index_opt s.name '.' with Some i -> String.sub s.name 0 i | None -> s.name in
    J.Obj
      [
        ("name", J.String s.name);
        ("cat", J.String cat);
        ("ph", J.String "X");
        ("ts", J.Float (1e6 *. (s.start -. epoch)));
        ("dur", J.Float (1e6 *. (s.stop -. s.start)));
        ("pid", J.Int 1);
        ("tid", J.Int tid);
        ("args", J.Obj [ ("query", J.Int s.query); ("span", J.Int s.index); ("parent", J.Int s.parent) ]);
      ]
  in
  J.Obj
    [
      ("traceEvents", J.List (List.concat_map (fun t -> List.rev_map (event t.tid) t.retained) ts));
      ("displayTimeUnit", J.String "ms");
      ("otherData", J.Obj [ ("dropped_spans", J.Int (List.fold_left (fun a t -> a + t.dropped) 0 ts)) ]);
    ]

let write_chrome path ts =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (J.to_string (to_chrome ts)))

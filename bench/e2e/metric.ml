(* The metric catalogue, sample statistics and the result line every
   workload run ends with. *)

module J = Fpgasat_obs.Json

(* Growable array for per-query samples: a serve run records a few hundred
   thousand latencies, too many for lists. *)
module Vec = struct
  type 'a t = { mutable data : 'a array; mutable len : int; dummy : 'a }

  let create dummy = { data = Array.make 256 dummy; len = 0; dummy }

  let push v x =
    if v.len = Array.length v.data then begin
      let data = Array.make (2 * v.len) v.dummy in
      Array.blit v.data 0 data 0 v.len;
      v.data <- data
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let length v = v.len
  let get v i = v.data.(i)
  let to_array v = Array.sub v.data 0 v.len
  let iter f v = for i = 0 to v.len - 1 do f v.data.(i) done
end

let sum xs = Array.fold_left ( +. ) 0. xs

(* Linear interpolation between closest ranks; [q] in [0, 1]. *)
let percentile xs q =
  let n = Array.length xs in
  if n = 0 then 0.
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then s.(n - 1)
    else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))
  end

let median xs = percentile xs 0.5

(* Quartiles exactly as Python's [statistics.quantiles(xs, n=4)] (the
   default "exclusive" method) computes them, so the spreads printed by
   [--runs] are the ones anyone recomputes from the same values with
   Python. *)
let quartiles xs =
  let m = Array.length xs in
  if m = 0 then (0., 0., 0.)
  else if m = 1 then (xs.(0), xs.(0), xs.(0))
  else begin
    let d = Array.copy xs in
    Array.sort compare d;
    let q i =
      let j = max 1 (min (m - 1) (i * (m + 1) / 4)) in
      let delta = (i * (m + 1)) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)
  end

(* IQR over median: the run-to-run spread a bound in BENCHMARK.json must
   cover. *)
let spread xs =
  let q1, q2, q3 = quartiles xs in
  if q2 = 0. then 0. else (q3 -. q1) /. Float.abs q2

(* Peak resident set of a live process in MB, from /proc. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> 0.
            | line -> (
                match String.split_on_char ':' line with
                | [ "VmHWM"; v ] ->
                    Scanf.sscanf (String.trim v) "%d kB" (fun kb ->
                        float_of_int kb /. 1024.)
                | _ -> scan ())
          in
          scan ())

(* ---------- the catalogue ---------- *)

(* What a user of the system sees, reported on every workload. The units
   must match BENCHMARK.json; the smoke test checks that they do. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("throughput_qps", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_tail_ms", "ms");
    ("decided_ratio", "ratio");
    ("peak_rss_mb", "MB");
  ]

(* One layer each, from the traced run. Times are raw self time per query
   (run total divided by queries), so they add up to the traced query
   time; work counts are per query too, which makes them exact on the
   batch workloads, whose runs are whole rounds of one query list. A
   metric a workload does not exercise reads 0. *)
let per_layer =
  [
    ("fpga.conflict_graph_ms", "ms");
    ("fpga.route_verify_ms", "ms");
    ("encodings.encode_ms", "ms");
    ("encodings.decode_ms", "ms");
    ("encodings.literals", "count");
    ("sat.load_ms", "ms");
    ("sat.check_model_ms", "ms");
    ("sat.words_allocated", "words");
    ("sat.search_ms", "ms");
    ("sat.propagations", "count");
    ("sat.conflicts", "count");
    ("sat.decisions", "count");
    ("sat.ns_per_propagation", "ns");
    ("sat.drat_check_ms", "ms");
    ("sat.proof_steps", "count");
    ("core.warm_route_ms", "ms");
    ("core.min_width_ms", "ms");
    ("core.session_prepare_ms", "ms");
    ("core.flow_residual_ms", "ms");
    ("engine.sweep_overhead_ms", "ms");
    ("server.parse_us", "us");
    ("server.cache_lookup_us", "us");
    ("server.respond_us", "us");
    ("server.dispatch_ms", "ms");
    ("server.cache_hit_ratio", "ratio");
    ("server.cache_insert_us", "us");
    ("server.failed", "count");
    ("client.parse_us", "us");
    ("client.route_p50_ms", "ms");
    ("client.certify_p50_ms", "ms");
    ("client.min_width_p50_ms", "ms");
    ("obs.trace_overhead_ratio", "ratio");
  ]

let unit_of name =
  match List.assoc_opt name (end_to_end @ per_layer) with
  | Some u -> u
  | None -> invalid_arg ("unknown metric " ^ name)

(* ---------- the result line ---------- *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

let result_to_json r =
  J.Obj
    [
      ("correct", J.Bool r.correct);
      ("attempted", J.Int r.attempted);
      ("failed", J.Int r.failed);
      ( "metrics",
        J.Obj
          (List.map
             (fun (name, v) ->
               (name, J.Obj [ ("value", J.Float v); ("unit", J.String (unit_of name)) ]))
             r.metrics) );
    ]

let number = function
  | J.Float f -> Some f
  | J.Int i -> Some (float_of_int i)
  | _ -> None

(* Metrics as (name, value, unit); [Error] when the line is not a result. *)
let result_of_line line =
  match J.of_string line with
  | Error m -> Error m
  | Ok j -> (
      match (J.find j "correct", J.find j "attempted", J.find j "failed", J.find j "metrics") with
      | Some (J.Bool correct), Some (J.Int attempted), Some (J.Int failed), Some (J.Obj ms) ->
          let metric (name, m) =
            match (Option.bind (J.find m "value") number, J.find m "unit") with
            | Some v, Some (J.String u) -> Ok (name, v, u)
            | _ -> Error ("malformed metric " ^ name)
          in
          let rec all acc = function
            | [] -> Ok (List.rev acc)
            | m :: rest -> (
                match metric m with Ok x -> all (x :: acc) rest | Error e -> Error e)
          in
          Result.map (fun ms -> (correct, attempted, failed, ms)) (all [] ms)
      | _ -> Error "not a result line")

(* The human-readable lines printed before the result. *)
let print_metrics workload metrics =
  List.iter
    (fun (name, v) ->
      Printf.printf "%-14s %-26s %14.4f %s\n" workload name v (unit_of name))
    metrics

(* The end-to-end benchmark: four workloads, each run in a child process
   of its own so that set-up time and peak memory start from a clean
   process. See README.md for the workloads, the metrics and their
   bounds.

     e2e.exe --seed 2008                      all four workloads, once
     e2e.exe --workload W --seed N --seconds S --trace 0|1
                                              one run; the last stdout
                                              line is the result JSON
     e2e.exe --runs N                         N seeds per workload, with
                                              median and quartiles
     e2e.exe --compare A.json B.json          B against A, under the
                                              bounds of BENCHMARK.json
     e2e.exe --smoke                          the tier-1 smoke test
     e2e.exe --regen-expected                 recompute and certify
                                              expected.json *)

module J = Fpgasat_obs.Json

let workloads =
  [
    ("table2-s1", fun env -> Batch.run env Batch.table2);
    ("gen-routable", fun env -> Batch.run env Batch.gen_routable);
    ("serve-repeat", fun env -> Serve.run env Serve.repeat);
    ("serve-explore", fun env -> Serve.run env Serve.explore);
  ]

let workload = ref ""
let seed = ref 2008
let seconds = ref 20
let trace = ref 0
let smoke = ref false
let regen = ref false
let runs = ref 0
let compare = ref None

let usage = "e2e.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--runs N] [--compare A B] [--smoke] [--regen-expected]"

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("e2e: " ^ m); exit 2) fmt

(* ---------- one workload, in this process ---------- *)

let run_workload name =
  let f = match List.assoc_opt name workloads with Some f -> f | None -> die "unknown workload %S" name in
  let dir = Env.run_dir (Unix.getpid ()) in
  Env.mkdir_p dir;
  at_exit (fun () ->
      Env.kill_all ();
      Env.rm_rf dir);
  let env =
    {
      Env.workload = name;
      seed = !seed;
      seconds = float_of_int !seconds;
      trace = !trace = 1;
      smoke = !smoke;
      dir;
    }
  in
  let r = f env in
  print_endline (J.to_string (Metric.result_to_json r));
  exit (if r.Metric.correct then 0 else 1)

(* ---------- child runs ---------- *)

type child = { status : Unix.process_status; result : (bool * int * int * (string * float * string) list, string) result }

(* Runs one workload in a child process and parses its last line; with
   [echo] its report is copied to stderr as it comes. *)
let child ?(echo = true) ~name ~seed ~trace ~smoke () =
  let args =
    [ "--workload"; name; "--seed"; string_of_int seed; "--seconds"; string_of_int !seconds; "--trace"; string_of_int trace ]
    @ if smoke then [ "--smoke" ] else []
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Env.spawn ~stdout:w Sys.executable_name args in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let rec read last =
    match input_line ic with
    | line ->
        if echo then prerr_endline line;
        read (if String.trim line = "" then last else line)
    | exception End_of_file -> last
  in
  let last = read "" in
  close_in ic;
  let _, status = Env.waitpid_noeintr [] pid in
  Env.forget pid;
  (pid, { status; result = Metric.result_of_line last })

(* ---------- BENCHMARK.json ---------- *)

type declared = { name : string; unit_ : string; better : string; bound : float }

let declared section =
  let path = Env.benchmark_json () in
  let doc =
    match J.of_string (In_channel.with_open_bin path In_channel.input_all) with
    | Ok j -> j
    | Error m -> die "%s: %s" path m
    | exception Sys_error m -> die "%s" m
  in
  match J.find doc section with
  | Some (J.List l) ->
      List.map
        (fun m ->
          let str k = match J.find m k with Some (J.String s) -> s | _ -> "" in
          {
            name = str "name";
            unit_ = str "unit";
            better = str "better";
            bound = Option.value (Option.bind (J.find m "bound") Metric.number) ~default:0.;
          })
        l
  | _ -> die "%s: no %s list" path section

(* ---------- all workloads once ---------- *)

let run_all () =
  let ok = ref true in
  let objs =
    List.map
      (fun (name, _) ->
        let _, c = child ~name ~seed:!seed ~trace:!trace ~smoke:!smoke () in
        match c.result with
        | Ok (correct, attempted, failed, metrics) ->
            if c.status <> Unix.WEXITED 0 then ok := false;
            List.iter (fun (m, v, u) -> Printf.printf "%-14s %-26s %14.4f %s\n" name m v u) metrics;
            let metrics = List.map (fun (m, v, _) -> (m, v)) metrics in
            (name, Metric.result_to_json { Metric.correct; attempted; failed; metrics })
        | Error m ->
            ok := false;
            Printf.printf "%-14s FAILED: %s\n" name m;
            (name, J.Null))
      workloads
  in
  print_endline (J.to_string (J.Obj [ ("seed", J.Int !seed); ("workloads", J.Obj objs) ]));
  exit (if !ok then 0 else 1)

(* ---------- --runs ---------- *)

let runs_schema = "fpgasat.e2e-runs/1"

(* N runs per workload on seeds seed, seed+1, ..., interleaved across
   workloads so slow drift in the machine spreads over all of them. *)
let run_many n =
  let samples = Hashtbl.create 64 in
  let units = Hashtbl.create 64 in
  let ok = ref true in
  for i = 0 to n - 1 do
    List.iter
      (fun (name, _) ->
        match snd (child ~name ~seed:(!seed + i) ~trace:!trace ~smoke:!smoke ()) with
        | { status = Unix.WEXITED 0; result = Ok (_, _, _, metrics) } ->
            List.iter
              (fun (m, v, u) ->
                Hashtbl.replace units m u;
                let prev = Option.value (Hashtbl.find_opt samples (name, m)) ~default:[] in
                Hashtbl.replace samples (name, m) (v :: prev))
              metrics
        | _ ->
            ok := false;
            Printf.printf "%s seed %d FAILED\n%!" name (!seed + i))
      workloads
  done;
  let metric_names = List.map fst (if !trace = 1 then Metric.per_layer else Metric.end_to_end) in
  Printf.printf "%-14s %-26s %12s %12s %12s %8s\n" "workload" "metric" "q1" "median" "q3" "spread";
  let per_workload =
    List.map
      (fun (name, _) ->
        let metrics =
          List.filter_map
            (fun m ->
              match Hashtbl.find_opt samples (name, m) with
              | None -> None
              | Some values ->
                  let values = Array.of_list (List.rev values) in
                  let q1, q2, q3 = Metric.quartiles values in
                  Printf.printf "%-14s %-26s %12.4f %12.4f %12.4f %7.2f%%\n" name m q1 q2 q3
                    (100. *. Metric.spread values);
                  Some
                    ( m,
                      J.Obj
                        [
                          ("unit", J.String (Hashtbl.find units m));
                          ("values", J.List (Array.to_list (Array.map (fun v -> J.Float v) values)));
                        ] ))
            metric_names
        in
        (name, J.Obj metrics))
      workloads
  in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("schema", J.String runs_schema);
            ("seed", J.Int !seed);
            ("runs", J.Int n);
            ("seconds", J.Int !seconds);
            ("workloads", J.Obj per_workload);
          ]));
  exit (if !ok then 0 else 1)

(* ---------- --compare ---------- *)

let load_runs path =
  let lines =
    try In_channel.with_open_bin path In_channel.input_all |> String.split_on_char '\n'
    with Sys_error m -> die "%s" m
  in
  let last = List.fold_left (fun acc l -> if String.trim l = "" then acc else l) "" lines in
  match J.of_string last with
  | Ok j when J.find j "schema" = Some (J.String runs_schema) -> (
      match J.find j "workloads" with Some (J.Obj ws) -> ws | _ -> die "%s: no workloads" path)
  | _ -> die "%s: last line is not a %s document (write one with --runs)" path runs_schema

let values ws workload metric =
  match Option.bind (List.assoc_opt workload ws) (fun w -> J.find w metric) with
  | Some m -> (
      match J.find m "values" with
      | Some (J.List vs) -> Some (Array.of_list (List.filter_map Metric.number vs))
      | _ -> None)
  | None -> None

(* B against A, per workload and end-to-end metric: a change worse than
   the metric's bound is a regression; where either side's spread exceeds
   the bound the comparison is unresolved, unless every run of B beats
   every run of A. The spread of setup_s is not held to its bound (set-up
   is timed a few times per run only), its median is. *)
let compare_runs a b =
  let wa = load_runs a and wb = load_runs b in
  let regressed = ref false in
  Printf.printf "%-14s %-18s %12s %12s %8s %8s %8s %6s  %s\n" "workload" "metric" "A median" "B median" "worse"
    "spreadA" "spreadB" "bound" "verdict";
  List.iter
    (fun (workload, _) ->
      List.iter
        (fun d ->
          match (values wa workload d.name, values wb workload d.name) with
          | Some va, Some vb when Array.length va > 0 && Array.length vb > 0 ->
              let ma = Metric.median va and mb = Metric.median vb in
              let lower = d.better = "lower" in
              let worse = (if lower then mb -. ma else ma -. mb) /. Float.abs ma in
              let sa = Metric.spread va and sb = Metric.spread vb in
              let beats x y = if lower then x < y else x > y in
              let all_better =
                Array.for_all (fun y -> Array.for_all (fun x -> beats y x) va) vb
              in
              let verdict =
                if d.name <> "setup_s" && Float.max sa sb > d.bound then
                  if all_better then "better" else "unresolved"
                else if worse > d.bound then begin
                  regressed := true;
                  "REGRESSED"
                end
                else "ok"
              in
              Printf.printf "%-14s %-18s %12.4f %12.4f %7.2f%% %7.2f%% %7.2f%% %5.0f%%  %s\n" workload d.name ma
                mb (100. *. worse) (100. *. sa) (100. *. sb) (100. *. d.bound) verdict
          | _ -> Printf.printf "%-14s %-18s missing\n" workload d.name)
        (declared "end_to_end"))
    wa;
  exit (if !regressed then 1 else 0)

(* ---------- --smoke ---------- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* A process still running from [dir] would be a server the child failed
   to stop. *)
let processes_using dir =
  Array.to_list (Sys.readdir "/proc")
  |> List.filter (fun e ->
         int_of_string_opt e <> None
         &&
         match In_channel.with_open_bin (Filename.concat "/proc" (Filename.concat e "cmdline")) In_channel.input_all with
         | cmd -> contains cmd dir
         | exception Sys_error _ -> false)

(* Every workload at toy size, untraced and traced: each must answer
   correctly, print every metric BENCHMARK.json declares with its unit,
   and leave no server process or socket behind. *)
let run_smoke () =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  List.iter
    (fun (name, _) ->
      List.iter
        (fun (t, section) ->
          let pid, c = child ~echo:false ~name ~seed:!seed ~trace:t ~smoke:true () in
          (match (c.status, c.result) with
          | Unix.WEXITED 0, Ok (true, _, 0, metrics) ->
              List.iter
                (fun d ->
                  match List.find_opt (fun (m, _, _) -> m = d.name) metrics with
                  | Some (_, _, u) when u = d.unit_ -> ()
                  | Some (_, _, u) -> problem "%s: %s printed in %s, declared in %s" name d.name u d.unit_
                  | None -> problem "%s (trace %d): %s not printed" name t d.name)
                (declared section)
          | _, Ok (correct, _, failed, _) ->
              problem "%s (trace %d): correct=%b failed=%d" name t correct failed
          | _, Error m -> problem "%s (trace %d): %s" name t m);
          let dir = Env.run_dir pid in
          if Sys.file_exists dir then problem "%s: %s left behind" name dir;
          match processes_using (Filename.basename dir ^ "/") with
          | [] -> ()
          | ps -> problem "%s: processes left running: %s" name (String.concat " " ps))
        [ (0, "end_to_end"); (1, "per_layer") ])
    workloads;
  match List.rev !problems with
  | [] ->
      print_endline "smoke: ok";
      exit 0
  | ps ->
      List.iter (fun p -> print_endline ("smoke: " ^ p)) ps;
      exit 1

(* ---------- command line ---------- *)

let () =
  let args =
    [
      ("--workload", Arg.Set_string workload, "W run one workload: " ^ String.concat ", " (List.map fst workloads));
      ("--seed", Arg.Set_int seed, "N input seed (default 2008)");
      ("--seconds", Arg.Set_int seconds, "S measurement window per run (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 1 = the traced run, reporting per-layer metrics");
      ("--smoke", Arg.Set smoke, " toy sizes; without --workload, the tier-1 smoke test");
      ("--runs", Arg.Set_int runs, "N run every workload on N seeds; report median and quartiles");
      ( "--compare",
        (let a = ref "" in
         Arg.Tuple [ Arg.Set_string a; Arg.String (fun b -> compare := Some (!a, b)) ]),
        "A B compare two --runs outputs under the bounds in BENCHMARK.json" );
      ("--regen-expected", Arg.Set regen, " recompute and certify bench/e2e/expected.json");
    ]
  in
  Arg.parse args (fun a -> die "unexpected argument %S" a) usage;
  if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
  if !seconds < 1 then die "--seconds must be at least 1";
  if !regen then begin
    let path = "bench/e2e/expected.json" in
    if not (Sys.file_exists (Filename.dirname path)) then die "run --regen-expected from the repository root";
    exit (if Expected.regen path then 0 else 1)
  end;
  match (!compare, !workload, !runs) with
  | Some (a, b), _, _ -> compare_runs a b
  | None, w, _ when w <> "" -> run_workload w
  | None, _, n when n > 0 -> run_many n
  | None, _, _ -> if !smoke then run_smoke () else run_all ()

(* What one workload run is given, where it finds its resources, and the
   processes and files it must not leave behind. *)

type t = {
  workload : string;
  seed : int;
  seconds : float;  (** Measurement window of the run. *)
  trace : bool;
  smoke : bool;
  dir : string;  (** Scratch directory of this run, removed at exit. *)
}

(* Everything the benchmark reads sits in the build tree next to the
   executable (the dune alias and the runtest rule put it there), so the
   benchmark behaves the same whatever directory it is started from. *)
let beside_exe path = Filename.concat (Filename.dirname Sys.executable_name) path
let expected_json () = beside_exe "expected.json"
let benchmark_json () = beside_exe "../../BENCHMARK.json"
let server_exe () = beside_exe "../../bin/fpgasat.exe"

(* Scratch space and traces live under the working directory: the run
   writes nothing outside the tree it is started in. Paths stay relative
   so the server's socket path fits the 108-byte sun_path limit however
   deep that tree is. *)
let out_root = ".bench_out"

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | exception Unix.Unix_error _ -> ()
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let run_dir pid = Filename.concat out_root (Printf.sprintf "run-%d" pid)

(* ---------- child processes ---------- *)

(* Every process this one starts, so that an exit — normal, by exception
   or by signal — kills and reaps whatever is still running. *)
let live : int list ref = ref []

let spawn ?(stdout = Unix.stdout) ?(stderr = Unix.stderr) prog args =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () -> Unix.create_process prog (Array.of_list (prog :: args)) null stdout stderr)
  in
  live := pid :: !live;
  pid

let forget pid = live := List.filter (( <> ) pid) !live

let rec waitpid_noeintr flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_noeintr flags pid

(* SIGTERM, then SIGKILL if it has not exited within [grace] seconds;
   always reaped. *)
let terminate ?(grace = 10.) pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. grace in
  let rec wait () =
    match waitpid_noeintr [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (waitpid_noeintr [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  forget pid

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (waitpid_noeintr [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let () =
  at_exit kill_all;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigterm; Sys.sigint; Sys.sighup ]

(* ---------- helpers shared by the workloads ---------- *)

let now = Unix.gettimeofday

(* Seeded Fisher-Yates shuffle; [salt] separates independent streams. *)
let shuffle ~seed ~salt xs =
  let a = Array.of_list xs in
  let rng = Random.State.make [| seed; salt |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Set-up is timed several times per run and the median reported, so one
   slow start cannot move [setup_s]; all but the last set-up are torn
   down. Traced and smoke runs report no [setup_s] worth repeating for.
   Times are reference seconds ({!Speed}). *)
let timed_setup env ~setup ~teardown =
  let repeats = if env.trace || env.smoke then 1 else 3 in
  let rec go i times =
    let v, seconds = Speed.timed setup in
    let times = seconds :: times in
    if i + 1 < repeats then begin
      teardown v;
      go (i + 1) times
    end
    else (v, Metric.median (Array.of_list times))
  in
  go 0 []

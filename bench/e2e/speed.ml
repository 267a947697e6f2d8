(* Times at the machine's reference speed.

   The shared 2-vCPU machines this benchmark runs on change speed under
   it, in waves of tens of seconds to minutes: one fixed Table 2 cell,
   solved back to back for ten minutes, took between 0.23 s and 0.40 s
   averaged over 15-second windows, and raw wall times of one fixed query
   list spread 17-29% (IQR over median) across ten 20-second runs — more
   than any useful regression bound.

   So the benchmark times a fixed piece of work of its own — [probe]:
   heap-sorting a fixed array of random ints, branchy and cache-resident
   like a SAT search, and none of the program under test — right next to
   the measured work, while nothing else of the benchmark or the server
   runs, and reports each interval of work scaled by [reference] over the
   probes that bracket it: the time the work would have taken at the
   speed the probe shows [reference] at. Over ten minutes of that Table 2
   cell this scaling cut the spread of 15-second window means from 17% to
   2%; an integer loop left it four to five times larger, an allocation
   loop two to three times. Raw times are printed alongside. *)

module Vec = Metric.Vec

let now = Unix.gettimeofday
let size = 8_000

(* Seconds one probe takes at the machine's usual speed: the median of
   its probes over ten minutes on the 2-vCPU machine the bounds were set
   on. *)
let reference = 0.002

let input =
  let rng = Random.State.make [| 2008 |] in
  Array.init size (fun _ -> Random.State.bits rng)

(* Sorts in place in a scratch array, so probing allocates nothing and no
   garbage-collector setting of the program can move it. *)
let once scratch =
  let t = now () in
  Array.blit input 0 scratch 0 size;
  Array.sort Int.compare scratch;
  now () -. t

let probe () =
  let scratch = Array.make size 0 in
  let a = once scratch and b = once scratch and c = once scratch in
  Metric.median [| a; b; c |]

(* A timeline of probes; the work happens between consecutive ones. *)
type t = { starts : float Vec.t; ends : float Vec.t; durations : float Vec.t }

let create () = { starts = Vec.create 0.; ends = Vec.create 0.; durations = Vec.create 0. }

let sample t =
  let start = now () in
  let d = probe () in
  Vec.push t.starts start;
  Vec.push t.ends (now ());
  Vec.push t.durations d

let intervals t = Vec.length t.durations - 1

(* Reference seconds per wall second in the work interval after probe k. *)
let factor t k = reference /. ((Vec.get t.durations k +. Vec.get t.durations (k + 1)) /. 2.)

(* The factor of the work interval an instant falls in (the last one for
   an instant past the end). *)
let factor_at t time =
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi + 1) / 2 in
      if Vec.get t.ends mid <= time then search mid hi else search lo (mid - 1)
  in
  factor t (min (intervals t - 1) (search 0 (intervals t - 1)))

(* When the work interval after probe k began. *)
let interval_start t k = Vec.get t.ends k

let sum_intervals t f =
  let total = ref 0. in
  for k = 0 to intervals t - 1 do
    total := !total +. ((Vec.get t.starts (k + 1) -. Vec.get t.ends k) *. f k)
  done;
  !total

(* All work intervals, probes excluded: in reference and in raw seconds. *)
let reference_seconds t = sum_intervals t (factor t)
let raw_seconds t = sum_intervals t (fun _ -> 1.)

(* [f ()] between two probes: its result and its reference seconds. *)
let timed f =
  let t = create () in
  sample t;
  let v = f () in
  sample t;
  (v, reference_seconds t)

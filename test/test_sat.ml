(* Tests for the SAT substrate: literals, CNF building, DIMACS round trips,
   the Luby sequence, the heap, and — most importantly — the CDCL solver
   cross-checked against brute force and the independent DPLL solver. *)

module Lit = Fpgasat_sat.Lit
module Cnf = Fpgasat_sat.Cnf
module Dimacs = Fpgasat_sat.Dimacs_cnf
module Solver = Fpgasat_sat.Solver
module Dpll = Fpgasat_sat.Dpll
module Luby = Fpgasat_sat.Luby
module Heap = Fpgasat_sat.Heap
module Vec = Fpgasat_sat.Vec
module Proof = Fpgasat_sat.Proof
module Watch = Fpgasat_sat.Watch
module Drat_check = Fpgasat_sat.Drat_check

let cnf_of_dimacs_lists nvars clauses =
  let cnf = Cnf.create () in
  Cnf.ensure_vars cnf nvars;
  List.iter (fun c -> Cnf.add_clause cnf (List.map Lit.of_dimacs c)) clauses;
  cnf

(* Clauses as DIMACS integer lists, via the zero-copy fold. *)
let dimacs_lists cnf =
  List.rev
    (Cnf.fold_clauses cnf ~init:[] ~f:(fun acc arena off len ->
         List.init len (fun k -> Lit.to_dimacs arena.(off + k)) :: acc))

(* Exhaustive satisfiability check for formulas with few variables. *)
let brute_force cnf =
  let n = Cnf.num_vars cnf in
  assert (n <= 20);
  let sat_under m =
    Cnf.fold_clauses cnf ~init:true ~f:(fun acc arena off len ->
        acc
        &&
        let rec any k =
          k < off + len
          && ((m lsr Lit.var arena.(k)) land 1
              = (if Lit.sign arena.(k) then 1 else 0)
             || any (k + 1))
        in
        any off)
  in
  let rec go m = if m >= 1 lsl n then None else if sat_under m then Some m else go (m + 1) in
  go 0

let solver_result_is_sat = function
  | Solver.Sat _ -> true
  | Solver.Unsat -> false
  | Solver.Unknown | Solver.Memout ->
      Alcotest.fail "solver returned Unknown without budget"

(* --- literal representation --- *)

let test_lit_roundtrip () =
  List.iter
    (fun d ->
      Alcotest.(check int) "dimacs roundtrip" d (Lit.to_dimacs (Lit.of_dimacs d)))
    [ 1; -1; 5; -5; 1000; -1000 ]

let test_lit_ops () =
  let l = Lit.make 3 true in
  Alcotest.(check int) "var" 3 (Lit.var l);
  Alcotest.(check bool) "sign" true (Lit.sign l);
  Alcotest.(check bool) "negate sign" false (Lit.sign (Lit.negate l));
  Alcotest.(check int) "negate var" 3 (Lit.var (Lit.negate l));
  Alcotest.(check int) "double negate" l (Lit.negate (Lit.negate l));
  Alcotest.(check int) "pos" (Lit.make 7 true) (Lit.pos 7);
  Alcotest.(check int) "neg_of" (Lit.make 7 false) (Lit.neg_of 7)

let test_lit_of_dimacs_zero () =
  Alcotest.check_raises "of_dimacs 0" (Invalid_argument "Lit.of_dimacs: 0")
    (fun () -> ignore (Lit.of_dimacs 0))

(* --- Cnf builder --- *)

let test_cnf_tautology_dropped () =
  let cnf = cnf_of_dimacs_lists 2 [ [ 1; -1 ]; [ 1; 2 ] ] in
  Alcotest.(check int) "tautology dropped" 1 (Cnf.num_clauses cnf)

let test_cnf_duplicates_removed () =
  let cnf = cnf_of_dimacs_lists 1 [ [ 1; 1; 1 ] ] in
  Alcotest.(check int) "one clause" 1 (Cnf.num_clauses cnf);
  Alcotest.(check int) "deduped" 1 (Cnf.clause_len cnf 0)

let test_cnf_unallocated_var_rejected () =
  let cnf = Cnf.create () in
  Alcotest.check_raises "unallocated"
    (Invalid_argument "Cnf.add_clause: unallocated variable") (fun () ->
      Cnf.add_clause cnf [ Lit.pos 0 ])

let test_cnf_fresh_vars () =
  let cnf = Cnf.create () in
  let vars = Cnf.fresh_vars cnf 5 in
  Alcotest.(check int) "count" 5 (Cnf.num_vars cnf);
  Alcotest.(check (array int)) "consecutive" [| 0; 1; 2; 3; 4 |] vars

let test_cnf_copy_independent () =
  let cnf = cnf_of_dimacs_lists 2 [ [ 1; 2 ] ] in
  let copy = Cnf.copy cnf in
  Cnf.add_clause cnf [ Lit.pos 0 ];
  Alcotest.(check int) "copy unchanged" 1 (Cnf.num_clauses copy);
  Alcotest.(check int) "original grew" 2 (Cnf.num_clauses cnf)

let test_cnf_views_agree () =
  let cnf = cnf_of_dimacs_lists 4 [ [ 1; -2 ]; [ 3; 4; -1 ]; [ 2 ] ] in
  (* the three access paths — views, indexed accessors, and the fold — must
     describe the same clauses *)
  let via_views =
    List.init (Cnf.num_clauses cnf) (fun i ->
        Cnf.view_to_list (Cnf.get_clause cnf i) |> List.map Lit.to_dimacs)
  in
  let via_accessors =
    List.init (Cnf.num_clauses cnf) (fun i ->
        List.init (Cnf.clause_len cnf i) (fun k ->
            Lit.to_dimacs (Cnf.clause_lit cnf i k)))
  in
  Alcotest.(check (list (list int))) "views = fold" (dimacs_lists cnf) via_views;
  Alcotest.(check (list (list int)))
    "accessors = fold" (dimacs_lists cnf) via_accessors;
  let v = Cnf.get_clause cnf 1 in
  Alcotest.(check int) "view_len" 3 (Cnf.view_len v);
  Alcotest.(check (array int))
    "view_to_array" (Array.of_list (Cnf.view_to_list v)) (Cnf.view_to_array v);
  Alcotest.(check int) "num_lits totals lens" 6 (Cnf.num_lits cnf)

let test_cnf_builder_matches_add_clause () =
  let a = cnf_of_dimacs_lists 3 [ [ 1; -2; 3 ]; [ 2; 2; -3 ] ] in
  let b = Cnf.create () in
  Cnf.ensure_vars b 3;
  List.iter
    (fun c ->
      Cnf.start_clause b;
      List.iter (fun d -> Cnf.push_lit b (Lit.of_dimacs d)) c;
      Cnf.commit_clause b)
    [ [ 1; -2; 3 ]; [ 2; 2; -3 ] ];
  Alcotest.(check (list (list int)))
    "builder = add_clause" (dimacs_lists a) (dimacs_lists b)

let test_cnf_append () =
  let a = cnf_of_dimacs_lists 2 [ [ 1; 2 ]; [ -1 ] ] in
  let b = cnf_of_dimacs_lists 3 [ [ 3; -2 ] ] in
  Cnf.append a b;
  Alcotest.(check int) "vars raised" 3 (Cnf.num_vars a);
  Alcotest.(check int) "clauses concatenated" 3 (Cnf.num_clauses a);
  Alcotest.(check (list (list int)))
    "contents" [ [ 1; 2 ]; [ -1 ]; [ -2; 3 ] ] (dimacs_lists a);
  Alcotest.(check int) "src untouched" 1 (Cnf.num_clauses b)

(* --- DIMACS --- *)

let test_dimacs_roundtrip () =
  let cnf = cnf_of_dimacs_lists 3 [ [ 1; -2 ]; [ 2; 3 ]; [ -1; -3 ] ] in
  let s = Dimacs.to_string ~comments:[ "a comment" ] cnf in
  let cnf' = Dimacs.parse_string s in
  Alcotest.(check int) "vars" (Cnf.num_vars cnf) (Cnf.num_vars cnf');
  Alcotest.(check int) "clauses" (Cnf.num_clauses cnf) (Cnf.num_clauses cnf');
  Alcotest.(check (list (list int)))
    "clauses equal" (dimacs_lists cnf) (dimacs_lists cnf')

let test_dimacs_multiline_clause () =
  let cnf = Dimacs.parse_string "p cnf 3 1\n1 2\n3 0\n" in
  Alcotest.(check int) "one clause" 1 (Cnf.num_clauses cnf);
  Alcotest.(check int) "three lits" 3 (Cnf.clause_len cnf 0)

let expect_parse_error s =
  match Dimacs.parse_string s with
  | exception Dimacs.Parse_error _ -> ()
  | _ -> Alcotest.fail ("parse should have failed: " ^ s)

let test_dimacs_errors () =
  expect_parse_error "1 2 0\n";
  (* no header *)
  expect_parse_error "p cnf 2 1\n3 0\n";
  (* literal out of range *)
  expect_parse_error "p cnf 2 1\n1 2\n";
  (* unterminated clause *)
  expect_parse_error "p cnf x y\n";
  (* malformed header *)
  expect_parse_error "p cnf 2 1\np cnf 2 1\n1 0\n" (* duplicate header *)

(* Header sizes are untrusted: declarations a solver could never allocate
   for, and a literal whose magnitude overflows, are parse errors rather
   than Out_of_memory or Invalid_argument. *)
let test_dimacs_hostile_headers () =
  expect_parse_error "p cnf 100000000000 1\n1 0\n";
  expect_parse_error (Printf.sprintf "p cnf %d 0\n" max_int);
  expect_parse_error (Printf.sprintf "p cnf %d 0\n" (Dimacs.max_vars + 1));
  expect_parse_error (Printf.sprintf "p cnf 1 1\n%d 0\n" min_int);
  let cnf = Dimacs.parse_string (Printf.sprintf "p cnf %d 1\n1 0\n" Dimacs.max_vars) in
  Alcotest.(check int) "largest declaration kept" Dimacs.max_vars (Cnf.num_vars cnf);
  Alcotest.(check int) "clause store sized by the body" 1 (Cnf.num_lits cnf)

let test_dimacs_clause_count_validated () =
  (* regression: a trailing clause missing its terminating 0 at EOF must not
     be silently dropped *)
  expect_parse_error "p cnf 2 2\n1 0\n1 2\n";
  (* declared clause count must match the clauses actually read *)
  expect_parse_error "p cnf 2 2\n1 0\n";
  expect_parse_error "p cnf 2 1\n1 0\n-2 0\n";
  (* exact count still parses *)
  let cnf = Dimacs.parse_string "p cnf 2 2\n1 0\n-2 0\n" in
  Alcotest.(check int) "clauses" 2 (Cnf.num_clauses cnf)

let test_dimacs_comments_and_blanks () =
  let cnf = Dimacs.parse_string "c hello\n\np cnf 2 2\nc mid\n1 0\n-2 0\n" in
  Alcotest.(check int) "clauses" 2 (Cnf.num_clauses cnf)

(* --- Luby --- *)

let test_luby_prefix () =
  let expected = [ 1; 1; 2; 1; 1; 2; 4; 1; 1; 2; 1; 1; 2; 4; 8 ] in
  let got = List.init (List.length expected) Luby.get in
  Alcotest.(check (list int)) "luby prefix" expected got

(* --- Heap --- *)

let test_heap_order () =
  let scores = [| 1.0; 5.0; 3.0; 4.0; 2.0 |] in
  let h = Heap.create ~scores in
  for v = 0 to 4 do
    Heap.insert h v
  done;
  let order = List.init 5 (fun _ -> Heap.remove_max h) in
  Alcotest.(check (list int)) "descending score order" [ 1; 3; 2; 4; 0 ] order;
  Alcotest.(check bool) "empty" true (Heap.is_empty h)

let test_heap_rescore () =
  let scores = [| 1.0; 2.0; 3.0 |] in
  let h = Heap.create ~scores in
  for v = 0 to 2 do
    Heap.insert h v
  done;
  scores.(0) <- 10.0;
  Heap.rescore h 0;
  Alcotest.(check int) "rescored max" 0 (Heap.remove_max h)

(* Random insert / remove_max / score-bump-plus-rescore sequences against
   a list model of the members. Scores are small integers, so ties are
   common: remove_max may return any member of maximal score. *)
type heap_op = Insert of int | Remove_max | Bump of int * float

let prop_heap_matches_model =
  QCheck2.Test.make ~count:500 ~name:"heap agrees with a list model"
    QCheck2.Gen.(
      let* n = int_range 1 12 in
      let* scores = list_size (return n) (map float_of_int (int_bound 4)) in
      let op =
        oneof
          [
            map (fun v -> Insert v) (int_bound (n - 1));
            return Remove_max;
            map2 (fun v d -> Bump (v, float_of_int d)) (int_bound (n - 1)) (int_bound 3);
          ]
      in
      let* ops = list_size (int_bound 80) op in
      return (Array.of_list scores, ops))
    (fun (scores, ops) ->
      (* the bumps mutate the scores; a shrink may replay this input *)
      let scores = Array.copy scores in
      let h = Heap.create ~scores in
      let agrees model =
        Heap.is_empty h = (model = [])
        && List.for_all
             (fun v -> Heap.in_heap h v = List.mem v model)
             (List.init (Array.length scores) Fun.id)
      in
      let step model = function
        | Insert v ->
            Heap.insert h v;
            if List.mem v model then model else v :: model
        | Bump (v, d) ->
            scores.(v) <- scores.(v) +. d;
            Heap.rescore h v;
            model
        | Remove_max -> (
            match Heap.remove_max h with
            | exception Not_found ->
                if model <> [] then QCheck2.Test.fail_report "Not_found on a non-empty heap";
                model
            | v ->
                if not (List.mem v model) then
                  QCheck2.Test.fail_reportf "removed %d, not a member" v;
                if List.exists (fun u -> scores.(u) > scores.(v)) model then
                  QCheck2.Test.fail_reportf "removed %d, not of maximal score" v;
                List.filter (( <> ) v) model)
      in
      List.fold_left
        (fun model op ->
          let model = step model op in
          if not (agrees model) then QCheck2.Test.fail_report "membership differs";
          model)
        [] ops
      |> ignore;
      true)

(* --- Vec --- *)

let test_vec_basics () =
  let v = Vec.create ~dummy:0 () in
  for i = 1 to 100 do
    Vec.push v i
  done;
  Alcotest.(check int) "size" 100 (Vec.size v);
  Alcotest.(check int) "last" 100 (Vec.last v);
  Alcotest.(check int) "pop" 100 (Vec.pop v);
  Vec.filter_in_place (fun x -> x mod 2 = 0) v;
  Alcotest.(check int) "filtered" 49 (Vec.size v);
  Alcotest.(check int) "first even" 2 (Vec.get v 0);
  Vec.swap_remove v 0;
  Alcotest.(check int) "swap_remove moved last" 98 (Vec.get v 0)

(* Every Vec operation that vacates slots must overwrite them with the
   dummy: a stale pointer beyond [size] would pin the removed element for
   the lifetime of the vector (watch lists live as long as the solver). The
   weak array observes collection directly. *)
let test_vec_gc_release () =
  let v = Vec.create ~dummy:(Bytes.create 0) () in
  let w = Weak.create 6 in
  for i = 0 to 5 do
    let b = Bytes.make 32 (Char.chr (Char.code 'a' + i)) in
    Weak.set w i (Some b);
    Vec.push v b
  done;
  Vec.shrink v 4;
  (* [b0..b3] remain *)
  Vec.swap_remove v 0;
  (* drops b0, moves b3 into its slot: [b3; b1; b2] *)
  Vec.filter_in_place (fun b -> Bytes.get b 0 <> 'b') v;
  (* drops b1: [b3; b2] *)
  Gc.full_major ();
  Gc.full_major ();
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "element %d collected" i)
        false (Weak.check w i))
    [ 0; 1; 4; 5 ];
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "element %d still live" i)
        true (Weak.check w i))
    [ 2; 3 ];
  Vec.clear v;
  Gc.full_major ();
  Gc.full_major ();
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "element %d collected after clear" i)
        false (Weak.check w i))
    [ 2; 3 ]

(* --- solver on hand-written formulas --- *)

let test_solver_empty_formula () =
  let cnf = Cnf.create () in
  match Solver.solve cnf with
  | Solver.Sat m, _ -> Alcotest.(check int) "empty model" 0 (Array.length m)
  | _ -> Alcotest.fail "empty formula is SAT"

let test_solver_empty_clause () =
  let cnf = Cnf.create () in
  Cnf.add_clause cnf [];
  match Solver.solve cnf with
  | Solver.Unsat, _ -> ()
  | _ -> Alcotest.fail "empty clause is UNSAT"

let test_solver_unit_conflict () =
  let cnf = cnf_of_dimacs_lists 1 [ [ 1 ]; [ -1 ] ] in
  match Solver.solve cnf with
  | Solver.Unsat, _ -> ()
  | _ -> Alcotest.fail "x and not x is UNSAT"

let test_solver_simple_sat () =
  let cnf = cnf_of_dimacs_lists 3 [ [ 1; 2 ]; [ -1; 3 ]; [ -2; -3 ]; [ 1; -3 ] ] in
  match Solver.solve cnf with
  | Solver.Sat m, _ ->
      Alcotest.(check bool) "model checks" true (Solver.check_model cnf m)
  | _ -> Alcotest.fail "formula is SAT"

(* Pigeonhole principle: n+1 pigeons, n holes — classic small hard UNSAT. *)
let php pigeons holes =
  let cnf = Cnf.create () in
  let v = Array.init pigeons (fun _ -> Cnf.fresh_vars cnf holes) in
  for p = 0 to pigeons - 1 do
    Cnf.add_clause cnf (Array.to_list (Array.map Lit.pos v.(p)))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        Cnf.add_clause cnf [ Lit.neg_of v.(p1).(h); Lit.neg_of v.(p2).(h) ]
      done
    done
  done;
  cnf

let test_solver_php_unsat () =
  List.iter
    (fun n ->
      match Solver.solve (php (n + 1) n) with
      | Solver.Unsat, _ -> ()
      | _ -> Alcotest.fail (Printf.sprintf "PHP %d/%d must be UNSAT" (n + 1) n))
    [ 2; 3; 4; 5; 6 ]

let test_solver_php_sat () =
  match Solver.solve (php 5 5) with
  | Solver.Sat m, _ ->
      Alcotest.(check bool) "model checks" true (Solver.check_model (php 5 5) m)
  | _ -> Alcotest.fail "PHP 5/5 is SAT"

let test_solver_budget_unknown () =
  let cnf = php 9 8 in
  match Solver.solve ~budget:(Solver.conflict_budget 5) cnf with
  | (Solver.Unknown | Solver.Memout), stats ->
      Alcotest.(check bool) "few conflicts" true (stats.Fpgasat_sat.Stats.conflicts <= 6)
  | Solver.Unsat, _ -> Alcotest.fail "budget of 5 conflicts cannot refute PHP 9/8"
  | Solver.Sat _, _ -> Alcotest.fail "PHP 9/8 is not SAT"

(* Regression: budgets used to be polled only in the conflict branch of the
   search loop, so a conflict-free run ignored its wall-clock budget
   entirely. The instance below is a huge satisfiable formula of independent
   (a_i or b_i) pairs: every step is one free decision plus one propagation,
   never a conflict. The propagation-counter poll must abort it with
   [Unknown]; the pre-fix solver ran all the way to [Sat]. *)
let test_solver_time_budget_without_conflicts () =
  let n = 120_000 in
  let cnf = Cnf.create () in
  Cnf.ensure_vars cnf (2 * n);
  for i = 0 to n - 1 do
    Cnf.add_clause cnf [ Lit.pos (2 * i); Lit.pos ((2 * i) + 1) ]
  done;
  let budget =
    { Solver.no_budget with max_seconds = Some 1e-4; poll_every = 16 }
  in
  match Solver.solve ~budget cnf with
  | Solver.Unknown, stats ->
      (* the poll fired long before the instance was exhausted *)
      Alcotest.(check bool)
        "aborted early" true
        (stats.Fpgasat_sat.Stats.decisions < n)
  | Solver.Sat _, _ ->
      Alcotest.fail "wall-clock budget ignored on a conflict-free run"
  | Solver.Unsat, _ -> Alcotest.fail "instance is satisfiable"
  | Solver.Memout, _ -> Alcotest.fail "no memory budget was set"

(* Same shape for the interrupt hook: it must fire without conflicts. *)
let test_solver_interrupt_without_conflicts () =
  let n = 120_000 in
  let cnf = Cnf.create () in
  Cnf.ensure_vars cnf (2 * n);
  for i = 0 to n - 1 do
    Cnf.add_clause cnf [ Lit.pos (2 * i); Lit.pos ((2 * i) + 1) ]
  done;
  let budget =
    Solver.interruptible
      (fun () -> true)
      { Solver.no_budget with poll_every = 16 }
  in
  match Solver.solve ~budget cnf with
  | Solver.Unknown, stats ->
      Alcotest.(check bool)
        "aborted early" true
        (stats.Fpgasat_sat.Stats.decisions < n)
  | _ -> Alcotest.fail "interrupt ignored on a conflict-free run"

let test_solver_proof_ends_empty () =
  let proof = Proof.create () in
  (match Solver.solve ~proof (php 5 4) with
  | Solver.Unsat, _ -> ()
  | _ -> Alcotest.fail "PHP 5/4 is UNSAT");
  Alcotest.(check bool) "proof ends with empty clause" true (Proof.ends_with_empty proof);
  Alcotest.(check bool) "proof nonempty" true (Proof.num_steps proof > 0)

let test_solver_proof_drat_text () =
  let proof = Proof.create () in
  (match Solver.solve ~proof (php 4 3) with
  | Solver.Unsat, _ -> ()
  | _ -> Alcotest.fail "PHP 4/3 is UNSAT");
  let file = Filename.temp_file "fpgasat" ".drat" in
  let oc = open_out file in
  Proof.output oc proof;
  close_out oc;
  let ic = open_in file in
  let len = in_channel_length ic in
  close_in ic;
  Sys.remove file;
  Alcotest.(check bool) "file nonempty" true (len > 0)

let test_solver_both_presets_agree () =
  let cnf = php 6 5 in
  let r1, _ = Solver.solve ~config:Solver.minisat_like cnf in
  let r2, _ = Solver.solve ~config:Solver.siege_like cnf in
  Alcotest.(check bool) "both UNSAT" true (r1 = Solver.Unsat && r2 = Solver.Unsat)

let test_solver_wide_clauses () =
  (* a single wide clause plus forcing units: exercises watch relocation *)
  let cnf = Cnf.create () in
  let vars = Cnf.fresh_vars cnf 30 in
  Cnf.add_clause cnf (Array.to_list (Array.map Lit.pos vars));
  Array.iteri (fun i v -> if i < 29 then Cnf.add_clause cnf [ Lit.neg_of v ]) vars;
  match Solver.solve cnf with
  | Solver.Sat m, _ ->
      Alcotest.(check bool) "last literal carries the clause" true m.(29);
      Alcotest.(check bool) "model checks" true (Solver.check_model cnf m)
  | _ -> Alcotest.fail "satisfiable"

let test_solver_deterministic () =
  (* fixed seeds make runs bit-identical: same stats on repeat *)
  let cnf = php 7 6 in
  let _, s1 = Solver.solve cnf in
  let _, s2 = Solver.solve cnf in
  Alcotest.(check int) "same conflicts" s1.Fpgasat_sat.Stats.conflicts
    s2.Fpgasat_sat.Stats.conflicts;
  Alcotest.(check int) "same decisions" s1.Fpgasat_sat.Stats.decisions
    s2.Fpgasat_sat.Stats.decisions

let work_counters stats =
  Fpgasat_sat.Stats.(stats.decisions, stats.propagations, stats.conflicts)

(* PHP 6/5 with a guard variable [u] whose unit clause arrives mid-stream.
   Pigeon clauses before the unit carry [~u] and load whole; those after it
   carry [~u] and load shrunk; hole clauses carrying [u] are satisfied and
   skipped. Exact decision, propagation and conflict counts pin the order in
   which the solver's load step copies clauses and attaches watches. *)
let test_solver_exact_work_mid_stream_unit () =
  let pigeons = 6 and holes = 5 in
  let cnf = Cnf.create () in
  let x = Array.init pigeons (fun _ -> Cnf.fresh_vars cnf holes) in
  let u = Cnf.fresh_var cnf in
  let pigeon p = Array.to_list (Array.map Lit.pos x.(p)) in
  for p = 0 to (pigeons / 2) - 1 do
    Cnf.add_clause cnf (Lit.neg_of u :: pigeon p)
  done;
  Cnf.add_clause cnf [ Lit.pos u ];
  for p = pigeons / 2 to pigeons - 1 do
    Cnf.add_clause cnf (Lit.neg_of u :: pigeon p)
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        let clause = [ Lit.neg_of x.(p1).(h); Lit.neg_of x.(p2).(h) ] in
        Cnf.add_clause cnf clause;
        if (p1 + p2 + h) mod 3 = 0 then Cnf.add_clause cnf (Lit.pos u :: clause)
      done
    done
  done;
  List.iter
    (fun (config, name, expected) ->
      match Solver.solve ~config cnf with
      | Solver.Unsat, stats ->
          Alcotest.(check (triple int int int))
            (name ^ ": decisions, propagations, conflicts")
            expected (work_counters stats)
      | _ -> Alcotest.fail "PHP 6/5 is UNSAT")
    [
      (Solver.minisat_like, "minisat", (175, 2087, 144));
      (Solver.siege_like, "siege", (179, 2089, 144));
    ]

let prop_luby_structure =
  QCheck2.Test.make ~count:200 ~name:"Luby values are powers of two"
    QCheck2.Gen.(int_range 0 500)
    (fun i ->
      let v = Luby.get i in
      v > 0 && v land (v - 1) = 0)

let test_luby_negative_rejected () =
  Alcotest.check_raises "negative" (Invalid_argument "Luby.get") (fun () ->
      ignore (Luby.get (-1)))

(* --- random CNF cross-checks --- *)

let gen_random_cnf =
  QCheck2.Gen.(
    let* nvars = int_range 1 8 in
    let* nclauses = int_range 1 30 in
    let* clauses =
      list_repeat nclauses
        (let* width = int_range 1 4 in
         list_repeat width
           (let* v = int_range 0 (nvars - 1) in
            let* sign = bool in
            return (Lit.make v sign)))
    in
    return (nvars, clauses))

let build (nvars, clauses) =
  let cnf = Cnf.create () in
  Cnf.ensure_vars cnf nvars;
  List.iter (Cnf.add_clause cnf) clauses;
  cnf

let prop_cdcl_matches_brute_force =
  QCheck2.Test.make ~count:500 ~name:"CDCL agrees with brute force"
    gen_random_cnf (fun input ->
      let cnf = build input in
      let expected = brute_force cnf <> None in
      let got, _ = Solver.solve cnf in
      expected = solver_result_is_sat got)

let prop_cdcl_models_check =
  QCheck2.Test.make ~count:500 ~name:"CDCL models satisfy the formula"
    gen_random_cnf (fun input ->
      let cnf = build input in
      match Solver.solve cnf with
      | Solver.Sat m, _ -> Solver.check_model cnf m
      | Solver.Unsat, _ -> true
      | (Solver.Unknown | Solver.Memout), _ -> false)

let prop_cdcl_matches_dpll =
  QCheck2.Test.make ~count:500 ~name:"CDCL agrees with DPLL" gen_random_cnf
    (fun input ->
      let cnf = build input in
      let cdcl = solver_result_is_sat (fst (Solver.solve cnf)) in
      match Dpll.solve cnf with
      | Dpll.Sat m -> cdcl && Solver.check_model cnf m
      | Dpll.Unsat -> not cdcl
      | Dpll.Unknown -> false)

let prop_presets_agree =
  QCheck2.Test.make ~count:200 ~name:"solver presets agree" gen_random_cnf
    (fun input ->
      let cnf = build input in
      let a = solver_result_is_sat (fst (Solver.solve ~config:Solver.minisat_like cnf)) in
      let b = solver_result_is_sat (fst (Solver.solve ~config:Solver.siege_like cnf)) in
      a = b)

let prop_unsat_proofs_end_empty =
  QCheck2.Test.make ~count:200 ~name:"UNSAT answers carry a refutation trace"
    gen_random_cnf (fun input ->
      let cnf = build input in
      let proof = Proof.create () in
      match Solver.solve ~proof cnf with
      | Solver.Unsat, _ -> Proof.ends_with_empty proof
      | Solver.Sat _, _ | (Solver.Unknown | Solver.Memout), _ -> true)

(* Dirty CNFs: duplicate literals and tautological clauses injected on top
   of the random base, plus wider clauses than [gen_random_cnf] produces.
   These exercise clause normalisation feeding the flat arena, watcher
   setup on wide clauses, and inprocessing on messy inputs. *)
let gen_dirty_cnf =
  QCheck2.Gen.(
    let* nvars = int_range 1 10 in
    let* nclauses = int_range 1 40 in
    let gen_lit =
      let* v = int_range 0 (nvars - 1) in
      let* sign = bool in
      return (Lit.make v sign)
    in
    let* clauses =
      list_repeat nclauses
        (let* width = int_range 1 6 in
         let* base = list_repeat width gen_lit in
         let* dup = bool in
         let* tauto = bool in
         let dirty = if dup then List.hd base :: base else base in
         let dirty =
           if tauto then Lit.negate (List.hd base) :: dirty else dirty
         in
         return dirty)
    in
    return (nvars, clauses))

(* A configuration that inprocesses after every restart and restarts after
   every conflict: maximal coverage of self-subsumption and vivification on
   small instances, where the default cadence would never fire. *)
let inprocess_heavy =
  {
    Solver.siege_like with
    Solver.restart = Solver.Geometric (1, 1.0);
    inprocess_every = 1;
    inprocess_budget = 10_000;
  }

let prop_dirty_cnf_differential =
  QCheck2.Test.make ~count:300
    ~name:"CDCL (default and inprocess-heavy) vs DPLL on dirty CNFs"
    gen_dirty_cnf (fun input ->
      let cnf = build input in
      let expected = brute_force cnf <> None in
      let agrees config =
        match Solver.solve ~config cnf with
        | Solver.Sat m, _ -> expected && Solver.check_model cnf m
        | Solver.Unsat, _ -> not expected
        | (Solver.Unknown | Solver.Memout), _ -> false
      in
      agrees Solver.minisat_like
      && agrees inprocess_heavy
      &&
      match Dpll.solve cnf with
      | Dpll.Sat m -> expected && Solver.check_model cnf m
      | Dpll.Unsat -> not expected
      | Dpll.Unknown -> false)

(* Inprocessing rewrites the clause database mid-search; every rewrite must
   be logged so refutations stay checkable. The forward checker validates
   each step, so an unjustified strengthening fails here, not just an
   incomplete trace. *)
let prop_inprocess_drat_checkable =
  QCheck2.Test.make ~count:300
    ~name:"inprocess-heavy UNSAT traces pass the DRAT checker" gen_dirty_cnf
    (fun input ->
      let cnf = build input in
      let proof = Proof.create () in
      match Solver.solve ~config:inprocess_heavy ~proof cnf with
      | Solver.Unsat, _ ->
          Result.is_ok (Fpgasat_sat.Drat_check.check cnf proof)
      | Solver.Sat _, _ | (Solver.Unknown | Solver.Memout), _ -> true)

let lit_lists cnf =
  List.init (Cnf.num_clauses cnf) (fun i -> Cnf.view_to_list (Cnf.get_clause cnf i))

(* the legacy add_clause semantics, kept as an executable reference *)
let reference_normalise lits =
  let sorted = List.sort_uniq Lit.compare lits in
  let rec tauto = function
    | a :: (b :: _ as rest) -> a lxor b = 1 || tauto rest
    | [ _ ] | [] -> false
  in
  if tauto sorted then None else Some sorted

let prop_add_clause_normalises =
  QCheck2.Test.make ~count:500
    ~name:"add_clause sorts, dedupes, and drops tautologies" gen_random_cnf
    (fun (nvars, clauses) ->
      let cnf = Cnf.create () in
      Cnf.ensure_vars cnf nvars;
      List.iter (Cnf.add_clause cnf) clauses;
      lit_lists cnf = List.filter_map reference_normalise clauses)

let prop_views_consistent =
  QCheck2.Test.make ~count:200
    ~name:"fold_clauses, get_clause and indexed accessors agree" gen_random_cnf
    (fun input ->
      let cnf = build input in
      let via_fold =
        List.rev
          (Cnf.fold_clauses cnf ~init:[] ~f:(fun acc arena off len ->
               List.init len (fun k -> arena.(off + k)) :: acc))
      in
      let via_views = lit_lists cnf in
      let via_accessors =
        List.init (Cnf.num_clauses cnf) (fun i ->
            List.init (Cnf.clause_len cnf i) (Cnf.clause_lit cnf i))
      in
      via_fold = via_views
      && via_fold = via_accessors
      && Cnf.num_lits cnf
         = List.fold_left (fun n c -> n + List.length c) 0 via_fold)

let prop_copy_equals_source =
  QCheck2.Test.make ~count:200 ~name:"copy preserves clauses and vars"
    gen_random_cnf (fun input ->
      let cnf = build input in
      let c = Cnf.copy cnf in
      Cnf.num_vars c = Cnf.num_vars cnf && lit_lists c = lit_lists cnf)

let prop_dimacs_roundtrip =
  QCheck2.Test.make ~count:200 ~name:"DIMACS write/parse is identity"
    gen_random_cnf (fun input ->
      let cnf = build input in
      let cnf' = Dimacs.parse_string (Dimacs.to_string cnf) in
      Cnf.num_vars cnf = Cnf.num_vars cnf'
      && dimacs_lists cnf = dimacs_lists cnf')

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

(* ---------- one-word watchers ---------- *)

(* A formula with one variable too many for a watcher's blocker bits is
   refused by both watch-list users before they allocate anything sized
   by it: Cnf only records the variable count, so the whole call stays
   far below one array of that many literals. *)
let test_watch_limits_refused () =
  let cnf = Cnf.create () in
  Cnf.ensure_vars cnf ((Watch.max_lits / 2) + 1);
  let refused what f =
    let before = Gc.allocated_bytes () in
    (match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted %d variables" what (Cnf.num_vars cnf));
    Alcotest.(check bool) (what ^ " refused before allocating") true
      (Gc.allocated_bytes () -. before < 1e6)
  in
  refused "Solver.create" (fun () -> ignore (Solver.create cnf));
  refused "Drat_check.check" (fun () ->
      ignore (Drat_check.check cnf (Proof.create ())));
  Alcotest.check_raises "clause references past 2^32"
    (Invalid_argument
       (Printf.sprintf
          "arena: %d clause references, more than the %d a watcher holds"
          (Watch.max_refs + 1) Watch.max_refs))
    (fun () -> Watch.check "arena" ~lits:0 ~refs:(Watch.max_refs + 1))

(* Outside bytes cannot reach the limit: DIMACS and DRAT readers refuse
   any variable past [Dimacs.max_vars], whose literals fit. *)
let test_watch_limit_covers_dimacs () =
  Alcotest.(check bool) "2 * Dimacs_cnf.max_vars <= Watch.max_lits" true
    (2 * Dimacs.max_vars <= Watch.max_lits);
  Watch.check "dimacs" ~lits:(2 * Dimacs.max_vars) ~refs:0

let () =
  Alcotest.run "sat"
    [
      ( "lit",
        [
          Alcotest.test_case "dimacs roundtrip" `Quick test_lit_roundtrip;
          Alcotest.test_case "operations" `Quick test_lit_ops;
          Alcotest.test_case "of_dimacs 0 rejected" `Quick test_lit_of_dimacs_zero;
        ] );
      ( "cnf",
        [
          Alcotest.test_case "tautology dropped" `Quick test_cnf_tautology_dropped;
          Alcotest.test_case "duplicates removed" `Quick test_cnf_duplicates_removed;
          Alcotest.test_case "unallocated var rejected" `Quick
            test_cnf_unallocated_var_rejected;
          Alcotest.test_case "fresh vars" `Quick test_cnf_fresh_vars;
          Alcotest.test_case "copy independent" `Quick test_cnf_copy_independent;
          Alcotest.test_case "views agree" `Quick test_cnf_views_agree;
          Alcotest.test_case "builder matches add_clause" `Quick
            test_cnf_builder_matches_add_clause;
          Alcotest.test_case "append" `Quick test_cnf_append;
        ] );
      qsuite "cnf-properties"
        [
          prop_add_clause_normalises;
          prop_views_consistent;
          prop_copy_equals_source;
        ];
      ( "dimacs",
        [
          Alcotest.test_case "roundtrip" `Quick test_dimacs_roundtrip;
          Alcotest.test_case "multiline clause" `Quick test_dimacs_multiline_clause;
          Alcotest.test_case "malformed inputs rejected" `Quick test_dimacs_errors;
          Alcotest.test_case "hostile headers rejected" `Quick
            test_dimacs_hostile_headers;
          Alcotest.test_case "clause count validated" `Quick
            test_dimacs_clause_count_validated;
          Alcotest.test_case "comments and blanks" `Quick
            test_dimacs_comments_and_blanks;
        ] );
      ( "luby",
        Alcotest.test_case "prefix" `Quick test_luby_prefix
        :: Alcotest.test_case "negative rejected" `Quick test_luby_negative_rejected
        :: List.map QCheck_alcotest.to_alcotest [ prop_luby_structure ] );
      ( "heap",
        [
          Alcotest.test_case "order" `Quick test_heap_order;
          Alcotest.test_case "rescore" `Quick test_heap_rescore;
          QCheck_alcotest.to_alcotest prop_heap_matches_model;
        ] );
      ( "vec",
        [
          Alcotest.test_case "basics" `Quick test_vec_basics;
          Alcotest.test_case "vacated slots are collectable" `Quick
            test_vec_gc_release;
        ] );
      ( "solver",
        [
          Alcotest.test_case "empty formula" `Quick test_solver_empty_formula;
          Alcotest.test_case "empty clause" `Quick test_solver_empty_clause;
          Alcotest.test_case "unit conflict" `Quick test_solver_unit_conflict;
          Alcotest.test_case "simple sat" `Quick test_solver_simple_sat;
          Alcotest.test_case "pigeonhole unsat" `Quick test_solver_php_unsat;
          Alcotest.test_case "pigeonhole sat" `Quick test_solver_php_sat;
          Alcotest.test_case "budget gives Unknown" `Quick test_solver_budget_unknown;
          Alcotest.test_case "time budget without conflicts" `Quick
            test_solver_time_budget_without_conflicts;
          Alcotest.test_case "interrupt without conflicts" `Quick
            test_solver_interrupt_without_conflicts;
          Alcotest.test_case "proof ends empty" `Quick test_solver_proof_ends_empty;
          Alcotest.test_case "drat text output" `Quick test_solver_proof_drat_text;
          Alcotest.test_case "presets agree" `Quick test_solver_both_presets_agree;
          Alcotest.test_case "wide clauses" `Quick test_solver_wide_clauses;
          Alcotest.test_case "deterministic" `Quick test_solver_deterministic;
          Alcotest.test_case "exact work, unit mid-stream" `Quick
            test_solver_exact_work_mid_stream_unit;
        ] );
      ( "watch",
        [
          Alcotest.test_case "limits refused before allocating" `Quick
            test_watch_limits_refused;
          Alcotest.test_case "DIMACS variables fit" `Quick
            test_watch_limit_covers_dimacs;
        ] );
      qsuite "solver-properties"
        [
          prop_cdcl_matches_brute_force;
          prop_cdcl_models_check;
          prop_cdcl_matches_dpll;
          prop_presets_agree;
          prop_unsat_proofs_end_empty;
          prop_dirty_cnf_differential;
          prop_inprocess_drat_checkable;
          prop_dimacs_roundtrip;
        ];
    ]

(* Tests for the SAT extras: the DRAT forward checker and WalkSAT — each
   cross-checked against the CDCL solver and brute force on random
   formulas. *)

module Lit = Fpgasat_sat.Lit
module Cnf = Fpgasat_sat.Cnf
module Solver = Fpgasat_sat.Solver
module Proof = Fpgasat_sat.Proof
module Drat = Fpgasat_sat.Drat_check
module Walksat = Fpgasat_sat.Walksat

let cnf_of nvars clauses =
  let cnf = Cnf.create () in
  Cnf.ensure_vars cnf nvars;
  List.iter (fun c -> Cnf.add_clause cnf (List.map Lit.of_dimacs c)) clauses;
  cnf

let brute_force cnf =
  let n = Cnf.num_vars cnf in
  assert (n <= 16);
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
  let rec go m = if m >= 1 lsl n then false else sat_under m || go (m + 1) in
  go 0

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

(* --- Drat_check --- *)

let test_drat_accepts_php_proof () =
  let cnf = php 5 4 in
  let proof = Proof.create () in
  (match Solver.solve ~proof cnf with
  | Solver.Unsat, _ -> ()
  | _ -> Alcotest.fail "PHP 5/4 is UNSAT");
  match Drat.check cnf proof with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Format.asprintf "%a" Drat.pp_error e)

let test_drat_rejects_bogus_addition () =
  let cnf = cnf_of 3 [ [ 1; 2 ]; [ -1; 3 ] ] in
  let proof = Proof.create () in
  Proof.add proof [ Lit.pos 0 ];
  (* neither implied by unit propagation nor RAT on its pivot *)
  Proof.add proof [];
  match Drat.check cnf proof with
  | Error (Drat.Bad_step { step_index; reason }) ->
      Alcotest.(check int) "fails at the bogus step" 0 step_index;
      Alcotest.(check string) "complains about the inference"
        "added clause is neither RUP nor RAT" reason
  | Error (Drat.No_empty_clause _) -> Alcotest.fail "wrong error"
  | Ok _ -> Alcotest.fail "bogus proof accepted"

(* XOR-shaped: UNSAT, but not by unit propagation alone, so the checker
   cannot conclude at load time *)
let xor_unsat () = cnf_of 2 [ [ 1; 2 ]; [ -1; 2 ]; [ 1; -2 ]; [ -1; -2 ] ]

let test_drat_rejects_missing_empty () =
  let cnf = xor_unsat () in
  let proof = Proof.create () in
  (* one (tolerated) deletion step, but no addition ever derives empty *)
  Proof.delete proof [ Lit.pos 0; Lit.pos 1 ];
  match Drat.check cnf proof with
  | Error (Drat.No_empty_clause { num_steps }) ->
      (* the trace length, not a phantom step index one past the end *)
      Alcotest.(check int) "reports the trace length" 1 num_steps;
      let msg = Format.asprintf "%a" Drat.pp_error (Drat.No_empty_clause { num_steps }) in
      Alcotest.(check bool) "pp mentions the length" true
        (msg = "proof trace (1 steps) does not derive the empty clause")
  | Error (Drat.Bad_step _) -> Alcotest.fail "wrong error"
  | Ok _ -> Alcotest.fail "incomplete trace accepted"

let test_drat_tolerates_absent_deletion () =
  let cnf = xor_unsat () in
  let proof = Proof.create () in
  (* deleting a clause that was never present is a counted no-op
     (drat-trim convention; the solver's load-time simplification makes
     external traces hit this legitimately) *)
  Proof.delete proof [ Lit.pos 0; Lit.neg_of 1; Lit.pos 1 ];
  Proof.add proof [ Lit.pos 1 ];
  (* (x1) is RUP; installing it propagates to a top-level conflict *)
  match Drat.check cnf proof with
  | Ok stats ->
      Alcotest.(check int) "ignored deletion counted" 1
        stats.Drat.ignored_deletions;
      Alcotest.(check int) "no real deletion" 0 stats.Drat.deletions;
      Alcotest.(check int) "one rup addition" 1 stats.Drat.rup_steps
  | Error e -> Alcotest.fail (Format.asprintf "%a" Drat.pp_error e)

let test_drat_real_deletion_counted () =
  (* the xor core plus a redundant clause (1|3) that the trace deletes
     before finishing the refutation *)
  let cnf = cnf_of 3 [ [ 1; 2 ]; [ -1; 2 ]; [ 1; -2 ]; [ -1; -2 ]; [ 1; 3 ] ] in
  let proof = Proof.create () in
  Proof.delete proof [ Lit.pos 0; Lit.pos 2 ];
  Proof.add proof [ Lit.pos 1 ];
  match Drat.check cnf proof with
  | Ok stats ->
      Alcotest.(check int) "deletion counted" 1 stats.Drat.deletions;
      Alcotest.(check int) "no ignored deletion" 0 stats.Drat.ignored_deletions
  | Error e -> Alcotest.fail (Format.asprintf "%a" Drat.pp_error e)

(* A deletion names a literal set: order and repeated literals do not
   matter, each deletion removes one live copy, and a deletion that names
   a variable the checker never saw is an ignored no-op. *)
let test_drat_deletion_matches_literal_sets () =
  let cnf = cnf_of 3 [ [ 1; 2 ]; [ -1; 2 ]; [ 1; -2 ]; [ -1; -2 ]; [ 1; 3 ] ] in
  let proof = Proof.create () in
  Proof.delete proof [ Lit.pos 2; Lit.pos 0; Lit.pos 2 ];
  Proof.delete proof [ Lit.pos 0; Lit.pos 2 ];
  Proof.delete proof [ Lit.pos 40 ];
  Proof.add proof [ Lit.pos 1 ];
  match Drat.check cnf proof with
  | Ok stats ->
      Alcotest.(check int) "one clause removed" 1 stats.Drat.deletions;
      Alcotest.(check int) "second copy and unknown variable ignored" 2
        stats.Drat.ignored_deletions
  | Error e -> Alcotest.fail (Format.asprintf "%a" Drat.pp_error e)

let test_is_rat () =
  (* F = {(a|b), (-a|c), (-b|c)}: (a) is not RUP — assuming -a propagates
     nothing to conflict — but is RAT on a: the sole resolvent (c) is RUP *)
  let cnf = cnf_of 3 [ [ 1; 2 ]; [ -1; 3 ]; [ -2; 3 ] ] in
  Alcotest.(check bool) "not RUP" false (Drat.is_rup cnf [ Lit.pos 0 ]);
  Alcotest.(check bool) "but RAT" true (Drat.is_rat cnf [ Lit.pos 0 ]);
  Alcotest.(check bool) "RUP clauses are RAT too" true
    (Drat.is_rat cnf [ Lit.pos 0; Lit.pos 2 ])

let test_is_rup () =
  let cnf = cnf_of 3 [ [ 1; 2 ]; [ -2; 3 ] ] in
  (* asserting -1 forces 2, which forces 3, so (1 | 3) is RUP *)
  Alcotest.(check bool) "implied clause" true
    (Drat.is_rup cnf [ Lit.pos 0; Lit.pos 2 ]);
  Alcotest.(check bool) "unrelated clause" false
    (Drat.is_rup cnf [ Lit.pos 0 ])

let prop_drat_checks_solver_proofs =
  QCheck2.Test.make ~count:300 ~name:"solver refutations pass the DRAT checker"
    gen_random_cnf (fun input ->
      let cnf = build input in
      let proof = Proof.create () in
      match Solver.solve ~proof cnf with
      | Solver.Unsat, _ -> Result.is_ok (Drat.check cnf proof)
      | (Solver.Sat _ | Solver.Unknown | Solver.Memout), _ -> true)

let prop_drat_agrees_with_reference =
  QCheck2.Test.make ~count:300
    ~name:"watched-literal checker agrees with the reference checker"
    gen_random_cnf (fun input ->
      let cnf = build input in
      let proof = Proof.create () in
      match Solver.solve ~proof cnf with
      | Solver.Unsat, _ ->
          Result.is_ok (Drat.check cnf proof)
          = Result.is_ok (Drat.check_reference cnf proof)
      | (Solver.Sat _ | Solver.Unknown | Solver.Memout), _ -> true)

(* Random 3-CNFs near the satisfiability threshold: about half are UNSAT,
   with refutations long enough to mutate. *)
let gen_threshold_cnf =
  QCheck2.Gen.(
    let* nclauses = int_range 38 46 in
    let* clauses =
      list_repeat nclauses
        (list_repeat 3
           (let* v = int_range 0 9 in
            let* sign = bool in
            return (Lit.make v sign)))
    in
    return (10, clauses))

let refutation cnf =
  let proof = Proof.create () in
  match Solver.solve ~proof cnf with
  | Solver.Unsat, _ -> Some proof
  | (Solver.Sat _ | Solver.Unknown | Solver.Memout), _ -> None

let rebuild steps =
  let proof = Proof.create () in
  List.iter
    (function
      | Proof.Add lits -> Proof.add proof lits
      | Proof.Delete lits -> Proof.delete proof lits)
    steps;
  proof

(* (a) Soundness: a refutation of F checked against F minus one clause.
   Whenever the checker accepts, the smaller formula really is UNSAT. *)
let prop_drat_sound_on_weakened_formula =
  QCheck2.Test.make ~count:200
    ~name:"checker acceptance on a weakened formula implies UNSAT"
    QCheck2.Gen.(pair gen_threshold_cnf nat)
    (fun ((nvars, clauses), pick) ->
      match refutation (build (nvars, clauses)) with
      | None -> true
      | Some proof -> (
          let drop = pick mod List.length clauses in
          let weaker =
            build (nvars, List.filteri (fun i _ -> i <> drop) clauses)
          in
          match Drat.check weaker proof with
          | Error _ -> true
          | Ok _ -> (
              match Fpgasat_sat.Dpll.solve weaker with
              | Fpgasat_sat.Dpll.Unsat -> true
              | Fpgasat_sat.Dpll.Sat _ | Fpgasat_sat.Dpll.Unknown -> false)))

(* (b) A refutation with one lemma dropped or replaced by a random clause.
   The fast checker accepts everything the reference accepts (it also
   accepts RAT lemmas and stops at a top-level conflict), and where it
   rejects a step the reference has rejected that step or an earlier
   one. *)
let prop_drat_mutated_agrees_with_reference =
  QCheck2.Test.make ~count:200
    ~name:"mutated refutations: checker at least as permissive as reference"
    QCheck2.Gen.(
      let random_clause =
        let* width = int_range 0 3 in
        list_repeat width
          (let* v = int_range 0 9 in
           let* sign = bool in
           return (Lit.make v sign))
      in
      quad gen_threshold_cnf nat bool random_clause)
    (fun (input, pick, replace, clause) ->
      let cnf = build input in
      match refutation cnf with
      | None -> true
      | Some proof -> (
          let steps = Proof.steps proof in
          let lemmas =
            List.filter_map
              (fun (i, step) ->
                match step with Proof.Add _ -> Some i | Proof.Delete _ -> None)
              (List.mapi (fun i step -> (i, step)) steps)
          in
          let target = List.nth lemmas (pick mod List.length lemmas) in
          let mutated =
            rebuild
              (List.concat
                 (List.mapi
                    (fun i step ->
                      if i <> target then [ step ]
                      else if replace then [ Proof.Add clause ]
                      else [])
                    steps))
          in
          let fast = Drat.check cnf mutated in
          match (Drat.check_reference cnf mutated, fast) with
          | Ok (), Error _ -> false
          | Ok (), Ok _ -> true
          | ( Error (Drat.Bad_step { step_index = j; _ }),
              Error (Drat.Bad_step { step_index = i; _ }) ) ->
              j <= i
          | Error (Drat.No_empty_clause _), Error (Drat.Bad_step _) -> false
          | Error _, _ -> true))

(* (c) The two must-fail files of the certify smoke: the alu2 W=5 log
   refutation checked against the W=6 CNF, which is routable, and the same
   proof with its 11th line (step 10) replaced by the unit clause 1. Both
   checkers refuse them at the same step. Without its final empty clause the
   proof still passes [check], which stops at the top-level conflict, and
   fails [check_reference], which needs the empty clause spelled out. *)
let test_drat_refuses_ci_must_fail_files () =
  let module F = Fpgasat_fpga in
  let module E = Fpgasat_encodings in
  let module C = Fpgasat_core in
  let alu2 = F.Benchmarks.build (Option.get (F.Benchmarks.find "alu2")) in
  let strategy = Result.get_ok (C.Strategy.of_name "log") in
  let encode width =
    (E.Csp_encode.encode ?symmetry:strategy.C.Strategy.symmetry
       strategy.C.Strategy.encoding
       (E.Csp.make alu2.F.Benchmarks.graph ~k:width))
      .E.Csp_encode.cnf
  in
  let proof =
    match
      (C.Flow.submit
         C.Flow.(default_request |> with_strategy strategy |> with_proof true)
         alu2.F.Benchmarks.route ~width:5)
        .C.Flow.proof
    with
    | Some p -> p
    | None -> Alcotest.fail "no proof recorded"
  in
  let w5 = encode 5 and w6 = encode 6 in
  let bad_at what expected = function
    | Error (Drat.Bad_step { step_index; _ }) ->
        Alcotest.(check int) what expected step_index
    | Error e -> Alcotest.fail (Format.asprintf "%s: %a" what Drat.pp_error e)
    | Ok _ -> Alcotest.fail (what ^ ": accepted")
  in
  Alcotest.(check bool) "the proof itself verifies" true
    (Result.is_ok (Drat.check w5 proof));
  bad_at "wrong CNF" 15 (Drat.check w6 proof);
  bad_at "wrong CNF, reference" 15
    (Result.map ignore (Drat.check_reference w6 proof));
  let steps = Proof.steps proof in
  let replaced =
    rebuild
      (List.mapi
         (fun i step -> if i = 10 then Proof.Add [ Lit.of_dimacs 1 ] else step)
         steps)
  in
  bad_at "replaced 11th line" 10 (Drat.check w5 replaced);
  bad_at "replaced 11th line, reference" 10
    (Result.map ignore (Drat.check_reference w5 replaced));
  let truncated =
    rebuild (List.filteri (fun i _ -> i < List.length steps - 1) steps)
  in
  Alcotest.(check bool) "no final empty clause: check accepts" true
    (Result.is_ok (Drat.check w5 truncated));
  Alcotest.(check bool) "no final empty clause: reference refuses" true
    (Result.is_error (Drat.check_reference w5 truncated))

let test_proof_parse_roundtrip () =
  let proof = Proof.create () in
  Proof.add proof [ Lit.pos 0; Lit.neg_of 1 ];
  Proof.delete proof [ Lit.pos 2 ];
  Proof.add proof [];
  let path = Filename.temp_file "fpgasat" ".drat" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Proof.output oc proof;
      close_out oc;
      let parsed = Proof.parse_file path in
      Alcotest.(check bool) "steps survive the round trip" true
        (Proof.steps parsed = Proof.steps proof))

(* The checker sizes its per-literal arrays by the largest variable it
   meets, so a literal past the DIMACS cap is a parse error naming its
   line, not gigabytes of arrays (or a negative index from [min_int]). *)
let test_proof_parse_literal_cap () =
  let path = Filename.temp_file "fpgasat" ".drat" in
  let parse text =
    Out_channel.with_open_bin path (fun oc -> output_string oc text);
    Proof.parse_file path
  in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let cap = Fpgasat_sat.Dimacs_cnf.max_vars in
      List.iter
        (fun d ->
          match parse (Printf.sprintf "1 0\n%d 0\n" d) with
          | exception Proof.Parse_error m ->
              Alcotest.(check bool)
                (Printf.sprintf "%S names line 2" m)
                true
                (String.starts_with ~prefix:"line 2: " m)
          | _ -> Alcotest.failf "literal %d accepted" d)
        [ cap + 1; -(cap + 1); 100_000_000; 2_000_000_000; max_int; min_int ];
      Alcotest.(check int) "literals at the cap accepted" 1
        (Proof.num_steps (parse (Printf.sprintf "%d %d 0\n" cap (-cap)))))

(* --- Solver.restart_limit_of_config --- *)

let test_restart_limit_clamps () =
  let cfg = { Solver.default with Solver.restart = Solver.Geometric (100, 1.5) } in
  (* 100 * 1.5^k overflows float->int conversion far before k = 1000;
     int_of_float of an out-of-range float is unspecified, so the limit
     must clamp instead of going negative or garbage *)
  Alcotest.(check int) "clamped at huge k" max_int
    (Solver.restart_limit_of_config cfg 1000);
  Alcotest.(check int) "small k exact" 150
    (Solver.restart_limit_of_config cfg 1);
  let prev = ref 0 in
  for k = 0 to 200 do
    let l = Solver.restart_limit_of_config cfg k in
    Alcotest.(check bool) "monotone and positive" true (l >= !prev && l > 0);
    prev := l
  done

(* --- incremental solving with assumptions --- *)

let gen_assumptions nvars =
  QCheck2.Gen.(
    let* n = int_range 0 (min 4 nvars) in
    list_repeat n
      (let* v = int_range 0 (nvars - 1) in
       let* sign = bool in
       return (Lit.make v sign)))

let prop_assumptions_match_unit_clauses =
  QCheck2.Test.make ~count:400
    ~name:"solve_with assumptions = solve with unit clauses"
    QCheck2.Gen.(
      gen_random_cnf >>= fun ((nvars, _) as input) ->
      pair (return input) (gen_assumptions nvars))
    (fun (input, assumptions) ->
      let cnf = build input in
      let solver = Solver.create cnf in
      let incremental = Solver.solve_with ~assumptions solver in
      let augmented = build input in
      List.iter (fun l -> Fpgasat_sat.Cnf.add_clause augmented [ l ]) assumptions;
      let reference = fst (Solver.solve augmented) in
      match (incremental, reference) with
      | Solver.Q_sat m, Solver.Sat _ ->
          Solver.check_model augmented m
          && List.for_all
               (fun l -> m.(Lit.var l) = Lit.sign l)
               assumptions
      | Solver.Q_unsat, Solver.Unsat -> true
      | _ -> false)

let prop_solver_reusable_across_queries =
  QCheck2.Test.make ~count:200
    ~name:"one solver answers a query sequence consistently"
    QCheck2.Gen.(
      gen_random_cnf >>= fun ((nvars, _) as input) ->
      pair (return input)
        (list_repeat 4 (gen_assumptions nvars)))
    (fun (input, queries) ->
      let cnf = build input in
      let solver = Solver.create cnf in
      List.for_all
        (fun assumptions ->
          let incremental = Solver.solve_with ~assumptions solver in
          let augmented = build input in
          List.iter
            (fun l -> Fpgasat_sat.Cnf.add_clause augmented [ l ])
            assumptions;
          match (incremental, fst (Solver.solve augmented)) with
          | Solver.Q_sat m, Solver.Sat _ -> Solver.check_model augmented m
          | Solver.Q_unsat, Solver.Unsat -> true
          | _ -> false)
        queries)

(* Regression: [Stats.max_decision_level] was only advanced when a free
   decision opened a level, never when an assumption did. The chain below is
   fully determined by one assumption plus unit propagation — no free
   decision ever happens — so the pre-fix watermark stayed at 0. *)
let test_assumption_levels_raise_max_level () =
  let cnf = cnf_of 4 [ [ -1; 2 ]; [ -2; 3 ]; [ -3; 4 ] ] in
  let solver = Solver.create cnf in
  (match Solver.solve_with ~assumptions:[ Lit.of_dimacs 1 ] solver with
  | Solver.Q_sat m ->
      Alcotest.(check bool) "chain propagated" true (m.(0) && m.(1) && m.(2) && m.(3))
  | _ -> Alcotest.fail "chain under assumption is SAT");
  let stats = Solver.solver_stats solver in
  Alcotest.(check bool)
    "assumption level counted in max_decision_level" true
    (stats.Fpgasat_sat.Stats.max_decision_level >= 1);
  Alcotest.(check int) "only the assumption opened a level" 1
    stats.Fpgasat_sat.Stats.decisions

let test_assumptions_out_of_range_rejected () =
  let cnf = cnf_of 1 [ [ 1 ] ] in
  let solver = Solver.create cnf in
  Alcotest.check_raises "oob assumption"
    (Invalid_argument "Solver.solve_with: assumption variable out of range")
    (fun () -> ignore (Solver.solve_with ~assumptions:[ Lit.pos 9 ] solver))

let test_solver_stats_accumulate () =
  let cnf = php 6 5 in
  let solver = Solver.create cnf in
  (match Solver.solve_with solver with
  | Solver.Q_unsat -> ()
  | _ -> Alcotest.fail "PHP 6/5 is UNSAT");
  let after_first = (Solver.solver_stats solver).Fpgasat_sat.Stats.conflicts in
  (* the second call hits st.ok = false immediately *)
  (match Solver.solve_with solver with
  | Solver.Q_unsat -> ()
  | _ -> Alcotest.fail "still UNSAT");
  let after_second = (Solver.solver_stats solver).Fpgasat_sat.Stats.conflicts in
  Alcotest.(check bool) "first call worked" true (after_first > 0);
  Alcotest.(check int) "second call free" after_first after_second

(* --- WalkSAT --- *)

let test_walksat_finds_model () =
  let cnf = cnf_of 4 [ [ 1; 2 ]; [ -1; 3 ]; [ -3; 4 ]; [ -2; -4; 1 ] ] in
  match Walksat.solve cnf with
  | Walksat.Sat m, flips ->
      Alcotest.(check bool) "model checks" true (Solver.check_model cnf m);
      Alcotest.(check bool) "flips counted" true (flips >= 0)
  | Walksat.Unknown, _ -> Alcotest.fail "trivially satisfiable formula missed"

let test_walksat_php_sat () =
  let cnf = php 6 6 in
  match Walksat.solve cnf with
  | Walksat.Sat m, _ ->
      Alcotest.(check bool) "model checks" true (Solver.check_model cnf m)
  | Walksat.Unknown, _ -> Alcotest.fail "PHP 6/6 is satisfiable"

let test_walksat_gives_up_on_unsat () =
  let cnf = cnf_of 1 [ [ 1 ]; [ -1 ] ] in
  let params = { Walksat.default_params with max_tries = 2; max_flips = 100 } in
  match Walksat.solve ~params cnf with
  | Walksat.Unknown, _ -> ()
  | Walksat.Sat _, _ -> Alcotest.fail "found a model of an UNSAT formula"

let test_walksat_empty_clause () =
  let cnf = Cnf.create () in
  Cnf.add_clause cnf [];
  match Walksat.solve cnf with
  | Walksat.Unknown, 0 -> ()
  | _ -> Alcotest.fail "empty clause must give Unknown immediately"

let test_walksat_deterministic () =
  let cnf = php 5 5 in
  let r1 = Walksat.solve cnf and r2 = Walksat.solve cnf in
  Alcotest.(check bool) "same flip count" true (snd r1 = snd r2)

let quick_params =
  { Walksat.default_params with Walksat.max_tries = 3; max_flips = 5_000 }

let prop_walksat_models_valid =
  QCheck2.Test.make ~count:300 ~name:"WalkSAT models satisfy the formula"
    gen_random_cnf (fun input ->
      let cnf = build input in
      match Walksat.solve ~params:quick_params cnf with
      | Walksat.Sat m, _ -> Solver.check_model cnf m
      | Walksat.Unknown, _ -> true)

let prop_walksat_agrees_when_sat =
  QCheck2.Test.make ~count:200 ~name:"WalkSAT finds models of easy SAT formulas"
    gen_random_cnf (fun input ->
      let cnf = build input in
      (* on <=8 vars, the default budget makes WalkSAT essentially complete
         for satisfiable formulas *)
      if brute_force cnf then
        match Walksat.solve ~params:quick_params cnf with
        | Walksat.Sat _, _ -> true
        | Walksat.Unknown, _ -> false
      else true)

let qtests = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "sat-extras"
    [
      ( "drat-check",
        Alcotest.test_case "accepts PHP proof" `Quick test_drat_accepts_php_proof
        :: Alcotest.test_case "rejects bogus addition" `Quick
             test_drat_rejects_bogus_addition
        :: Alcotest.test_case "rejects missing empty clause" `Quick
             test_drat_rejects_missing_empty
        :: Alcotest.test_case "tolerates absent deletion" `Quick
             test_drat_tolerates_absent_deletion
        :: Alcotest.test_case "counts real deletions" `Quick
             test_drat_real_deletion_counted
        :: Alcotest.test_case "deletion matches literal sets" `Quick
             test_drat_deletion_matches_literal_sets
        :: Alcotest.test_case "is_rup" `Quick test_is_rup
        :: Alcotest.test_case "is_rat" `Quick test_is_rat
        :: Alcotest.test_case "proof parse round trip" `Quick
             test_proof_parse_roundtrip
        :: Alcotest.test_case "proof parse caps literals" `Quick
             test_proof_parse_literal_cap
        :: Alcotest.test_case "refuses the CI must-fail files" `Quick
             test_drat_refuses_ci_must_fail_files
        :: qtests
             [
               prop_drat_checks_solver_proofs;
               prop_drat_agrees_with_reference;
               prop_drat_sound_on_weakened_formula;
               prop_drat_mutated_agrees_with_reference;
             ]
      );
      ( "restart-limit",
        [ Alcotest.test_case "geometric clamps to max_int" `Quick
            test_restart_limit_clamps ] );
      ( "assumptions",
        Alcotest.test_case "assumption levels raise max_level" `Quick
          test_assumption_levels_raise_max_level
        :: Alcotest.test_case "out of range rejected" `Quick
          test_assumptions_out_of_range_rejected
        :: Alcotest.test_case "stats accumulate" `Quick test_solver_stats_accumulate
        :: qtests
             [ prop_assumptions_match_unit_clauses; prop_solver_reusable_across_queries ]
      );
      ( "walksat",
        Alcotest.test_case "finds a model" `Quick test_walksat_finds_model
        :: Alcotest.test_case "php sat" `Quick test_walksat_php_sat
        :: Alcotest.test_case "gives up on unsat" `Quick test_walksat_gives_up_on_unsat
        :: Alcotest.test_case "empty clause" `Quick test_walksat_empty_clause
        :: Alcotest.test_case "deterministic" `Quick test_walksat_deterministic
        :: qtests [ prop_walksat_models_valid; prop_walksat_agrees_when_sat ] );
    ]

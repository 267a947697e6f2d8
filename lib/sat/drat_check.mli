(** Forward DRAT proof checker on the solver's propagation kernel.

    The checker validates refutation traces produced by {!Solver} (or parsed
    from textual DRAT via {!Proof.parse_file}): each [Add] step, in order,
    must be RUP (reverse unit propagation) or, failing that, RAT on its
    first literal; [Delete] steps remove clauses from the active set. Its
    data layout and propagation loop are those of [Solver.propagate]: one
    flat arena with each clause's length inline, values indexed by literal,
    an int-array trail and (blocker, clause) watch pairs. Unit propagation
    is incremental across proof steps via a persistent trail, so a
    bench-sized trace checks in near-linear time rather than the quadratic
    re-scan of the reference checker.

    Deviations worth knowing, both the drat-trim convention: deleting a
    clause that is not present is a tolerated no-op (counted in {!stats}),
    and deleting a unit clause does not retract its propagation. *)

type stats = {
  mutable additions : int;  (** [Add] steps examined *)
  mutable rup_steps : int;  (** additions validated by RUP alone *)
  mutable rat_steps : int;  (** additions that needed the RAT fallback *)
  mutable deletions : int;  (** clauses actually removed *)
  mutable ignored_deletions : int;
      (** deletions of absent clauses, tolerated as no-ops *)
  mutable propagations : int;  (** trail literals processed *)
}

val pp_stats : Format.formatter -> stats -> unit

type error =
  | Bad_step of { step_index : int; reason : string }
      (** step [step_index] (0-based) is not a valid DRAT inference *)
  | No_empty_clause of { num_steps : int }
      (** the [num_steps]-step trace never derives a top-level conflict *)

val pp_error : Format.formatter -> error -> unit

val check : Cnf.t -> Proof.t -> (stats, error) result
(** [check cnf proof] replays [proof] against [cnf] and succeeds as soon as
    unit propagation at the top level reaches a conflict, certifying that
    [cnf] is unsatisfiable. An explicit empty clause is one way to get
    there; a unit or a lemma whose propagation conflicts is another, so the
    steps after it, the empty clause included, need not be present. The
    verdict and the index of a [Bad_step] do not depend on the order in
    which propagation visits clauses; only the [propagations] statistic
    does. Variables the proof names beyond [cnf]'s are numbered densely in
    order of first appearance, so the check's memory follows the proof's
    size, not its largest literal; neither the verdict nor the stats
    depend on which ids such variables carry.

    It can disagree with {!check_reference} in two ways, both in the
    direction of accepting more: it accepts RAT lemmas, and it stops at a
    top-level conflict without an explicit empty clause. For example, the
    alu2 W=5 log refutation with its final empty clause removed passes
    [check] and fails [check_reference]. Otherwise anything
    [check_reference] accepts, [check] accepts, and where [check] rejects
    step [i] the reference rejects step [i] or an earlier one. (A deletion
    that repeats a literal is the one exception: [check] matches deletions
    as literal sets, the reference as sorted lists.) *)

val check_reference : Cnf.t -> Proof.t -> (unit, error) result
(** The original list-scanning RUP checker, kept as a differential-testing
    oracle and benchmark baseline. Quadratic in the trace size; rejects
    additions that need RAT, succeeds only on an explicit empty clause, and
    treats a deletion of an absent clause as a no-op without recording
    it. *)

val is_rup : Cnf.t -> Lit.t list -> bool
(** [is_rup cnf clause] holds iff assuming the negation of [clause] and
    unit-propagating over [cnf] yields a conflict. *)

val is_rat : Cnf.t -> Lit.t list -> bool
(** [is_rat cnf clause] holds iff [clause] is RUP, or RAT on its first
    literal, with respect to [cnf]. *)

(** The end-to-end tool flow of the paper (Sect. 1):

    global routing → colouring conflict graph (DIMACS-compatible) → CNF
    under a chosen encoding (+ optional symmetry clauses) → SAT solver →
    either a verified detailed routing or a proof of unroutability.

    Timings are reported in the paper's three buckets: translation to graph
    colouring, translation to CNF, and SAT solving; "total CPU time" is
    their sum (Table 2's metric). *)

type timings = {
  to_graph : float;  (** Seconds to build the conflict graph. *)
  to_cnf : float;  (** Seconds to encode it as CNF. *)
  solving : float;  (** Seconds inside the SAT solver. *)
}

val total : timings -> float

type outcome =
  | Routable of Fpgasat_fpga.Detailed_route.t
      (** Decoded from the model and verified against the architecture. *)
  | Unroutable
      (** The CNF is unsatisfiable: no detailed routing with this width
          exists for this global routing. *)
  | Timeout  (** Budget exhausted: no answer. *)
  | Memout
      (** The solver's [max_memory_mb] ceiling was crossed and the search
          stopped cooperatively: no answer, but the process survived. *)

val outcome_name : outcome -> string
(** ["routable"], ["unroutable"], ["timeout"] or ["memout"] — the stable
    tags used by the machine-readable run records (see
    [Fpgasat_engine.Run_record]). *)

val decisive : outcome -> bool
(** True on {!Routable} and {!Unroutable}: the question was answered. *)

type run = {
  outcome : outcome;
  timings : timings;
  width : int;
  strategy : Strategy.t;
  cnf_vars : int;
  cnf_clauses : int;
  solver_stats : Fpgasat_sat.Stats.t;
  proof : Fpgasat_sat.Proof.t option;
  certified : bool option;
      (** [None] when certification was not requested or the outcome is
          {!Timeout}; [Some true] when the answer carried a checked
          certificate — an UNSAT proof accepted by {!Fpgasat_sat.Drat_check},
          a clique accepted by {!Fpgasat_fpga.Detailed_route.clique_refutes},
          or a model accepted by {!Fpgasat_sat.Solver.check_model} plus
          {!Fpgasat_fpga.Detailed_route.verify}. *)
  telemetry : Fpgasat_obs.Telemetry.t option;
      (** Derived performance metrics of this run; [None] unless the run
          was asked for them ([~telemetry:true]). *)
}

exception Decode_mismatch of string
(** A SAT model failed to decode into a proper colouring or a legal detailed
    routing — would indicate an encoding bug; never expected. *)

(** {1 From solver answer to run}

    The second half of the flow, shared by every way of reaching an answer:
    the cold pipeline ({!submit}), the warm
    incremental ladder ({!Incremental_width.query}) and the solve server's
    sessions, including their solver-free clique and greedy answers. *)

val decode :
  (bool array -> Fpgasat_graph.Coloring.t) ->
  Fpgasat_encodings.Csp.t ->
  bool array ->
  Fpgasat_graph.Coloring.t
(** [decode decoder csp model] reads the colouring out of a model with
    [decoder] ({!Fpgasat_encodings.Csp_encode.decode} of the encoded
    problem, or its {!Fpgasat_encodings.Csp_encode.decoder}) and checks that
    it is proper for [csp]. Raises {!Decode_mismatch} when it is not. *)

val metered : telemetry:bool -> (unit -> 'a) -> 'a * int option
(** Runs the thunk and, only when [telemetry], also returns the words it
    allocated — the [words_allocated] to hand to {!finish}. *)

type answer =
  [ `Colorable of Fpgasat_graph.Coloring.t | `Uncolorable | `Timeout | `Memout ]
(** A width query's verdict, before it becomes a {!run}. *)

type evidence =
  [ `Solved of Fpgasat_sat.Cnf.t * Fpgasat_sat.Solver.result
  | `Unsolved
  | `Clique of int array ]
(** What {!finish} certifies an answer against. [`Solved (cnf, result)] is
    the CNF the answer was solved on and the solver's result: a colouring
    is certified by {!Fpgasat_sat.Solver.check_model} of the model against
    [cnf] plus {!Fpgasat_fpga.Detailed_route.verify}, and an [`Uncolorable]
    answer by checking the proof against [cnf] with
    {!Fpgasat_sat.Drat_check}. The other two are answers found without a
    solver. [`Unsolved] is a colouring, such as a session's stored best
    colouring: no model exists, so {!Fpgasat_fpga.Detailed_route.verify}
    alone certifies it. Its dual [`Clique subnets] certifies an
    [`Uncolorable] answer by
    {!Fpgasat_fpga.Detailed_route.clique_refutes}: more than [width]
    subnets that pairwise need different tracks. *)

val finish :
  ?certify:evidence ->
  ?proof:Fpgasat_sat.Proof.t ->
  ?words_allocated:int ->
  strategy:Strategy.t ->
  cnf_size:int * int ->
  timings:timings ->
  stats:Fpgasat_sat.Stats.t ->
  Fpgasat_fpga.Global_route.t ->
  width:int ->
  answer ->
  run
(** Turns an answer into a {!run}: a colouring becomes a detailed routing
    of the global route (raising {!Decode_mismatch} when the architecture
    rejects it). When [certify] is given, the answer is certified against
    it as {!evidence} describes; an [`Uncolorable] answer with [`Solved]
    evidence but no [proof] gets [Some false], and evidence of the wrong
    kind for the answer gets [None]. [words_allocated] is given exactly
    when telemetry was asked for; the telemetry then rates [stats] over
    [timings.solving]. [cnf_size] is the [(vars, clauses)] of the encoded
    problem. *)

(** {1 Requests}

    Everything a width query can be asked to do, as one value. This is the
    unit of work the solve server receives over the wire, the sweep engine
    schedules, and the CLI builds from its flags — instead of a growing
    list of optional arguments on every entry point. Build one with
    {!default_request} and the [with_*] combinators:

    {[
      Flow.(
        default_request |> with_strategy s |> with_certify true
        |> with_budget (Sat.Solver.time_budget 5.))
    ]} *)

type request = {
  strategy : Strategy.t;  (** Default {!Strategy.best_single}. *)
  budget : Fpgasat_sat.Solver.budget;  (** Applies to the SAT search. *)
  want_proof : bool;
      (** Record a DRAT trace on UNSAT ([certify] implies it). *)
  certify : bool;
      (** Independently check the answer — UNSAT proofs through
          {!Fpgasat_sat.Drat_check}, models through
          {!Fpgasat_sat.Solver.check_model} plus
          {!Fpgasat_fpga.Detailed_route.verify}; see {!field-run.certified}. *)
  telemetry : bool;
      (** Derive {!field-run.telemetry} (throughput rates, LBD histogram,
          allocation); the only cost is two [Gc.allocated_bytes] reads. *)
  trace : Fpgasat_obs.Trace.t option;
      (** Record the run's lifecycle — a solve span plus solver events via
          {!Fpgasat_obs.Trace.sink}, which replaces any [on_event] hook
          already on the budget. *)
}

val default_request : request
(** {!Strategy.best_single}, no budget, no proof, no certification, no
    telemetry, no trace. *)

val with_strategy : Strategy.t -> request -> request
val with_budget : Fpgasat_sat.Solver.budget -> request -> request
val with_proof : bool -> request -> request
val with_certify : bool -> request -> request
val with_telemetry : bool -> request -> request
val with_trace : Fpgasat_obs.Trace.t -> request -> request

val submit : request -> Fpgasat_fpga.Global_route.t -> width:int -> run
(** Decides detailed routability of a global routing with [width] tracks,
    as specified by the request. Raises [Invalid_argument] when
    [width < 1]. *)

(** Portfolios of strategies (paper, Sect. 6), on the engine's domain pool.

    A portfolio runs several strategies on the same width query and takes
    the first answer, cancelling the rest. Members run on the bounded
    {!Pool} (no more one unbounded domain per member). The first member to
    reach a decisive answer wins — recorded with an atomic compare-and-set
    at the moment the answer lands, so two members finishing close together
    cannot swap places in the accounting — and flips a stop flag that
    cancels the others through their budget's interrupt hook.

    The paper's accounting, where a portfolio on enough cores costs the
    time of its fastest member, is a minimum over member times; the bench
    harness's [portfolio] section computes it from single-strategy runs.

    Cancellation latency is bounded by the interrupt poll granularity; see
    {!Fpgasat_sat.Solver.budget}. *)

type member_result = {
  strategy : Fpgasat_core.Strategy.t;
  run : Fpgasat_core.Flow.run;
  wall_seconds : float;
}

type t = {
  winner : member_result option;
      (** First decisive member ([None] if every member timed out). *)
  members : member_result list;
      (** All members, in input order. Cancelled members report
          [Flow.Timeout]. *)
}

val run :
  ?jobs:int ->
  ?budget:Fpgasat_sat.Solver.budget ->
  Fpgasat_core.Strategy.t list ->
  Fpgasat_fpga.Global_route.t ->
  width:int ->
  t
(** Runs the portfolio. [jobs] bounds the worker domains (default
    {!Pool.default_jobs}). Raises [Invalid_argument] on an empty member
    list and [Failure] if a member raises. *)

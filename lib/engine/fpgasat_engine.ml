(** The experiment engine: machine-scale execution of benchmark sweeps.

    {!Pool} is a bounded pool of OCaml 5 domains; {!Sweep} runs work queues
    of [benchmark × strategy × width] cells over it with per-job budgets,
    crash isolation, retry/quarantine supervision, streamed JSONL results
    and resume; {!Run_record} is the stable one-line-JSON schema those
    results use; {!Failure} is the taxonomy the supervisor classifies
    non-decisive cells with; {!Dims} sweeps grids of generated instances
    over the size axes and fits per-strategy scaling exponents from the
    records ({!Fpgasat_obs.Fit}); {!Chaos} injects deterministic faults into job
    queues to test the supervisor itself; {!Portfolio} races strategies on
    the same pool with first-answer-wins cancellation; {!Lockfile} is the
    advisory single-writer pid lock shared by the sweep's [--out] file and
    the solve server's cache journal. *)

module Lockfile = Lockfile
module Pool = Pool
module Run_record = Run_record
module Failure = Failure
module Sweep = Sweep
module Dims = Dims
module Chaos = Chaos
module Portfolio = Portfolio

(** Observability: tracing, telemetry, scaling fits and the perf gate.

    {!Json} is the dependency-free JSON substrate the whole stack shares;
    {!Trace} is a fixed-size allocation-free ring buffer of timestamped
    solver events with JSON and Chrome [trace_event] dumps; {!Telemetry}
    derives per-solve rates (propagations/s, conflicts/s, LBD histogram,
    allocation, peak heap) that ride the run-record schema; {!Fit} fits
    power-law scaling exponents over dimensional sweeps; {!Gate} is the one
    perf-regression gate, judging each section of a bench run against a
    committed baseline by the kind the bench declares for it — a
    geometric-mean time ratio, or the drift of fitted exponents. *)

module Json = Json
module Trace = Trace
module Telemetry = Telemetry
module Gate = Gate
module Fit = Fit

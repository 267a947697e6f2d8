#!/bin/sh
# Builds the end-to-end benchmark and the server it drives, then runs it
# with the given arguments. Run from the root of a checkout, e.g.
#   sh bench/e2e/run.sh --workload table2-s1 --seed 1 --seconds 20 --trace 0
set -e
dune build --root . @bench/e2e/bench
exec ./_build/default/bench/e2e/e2e.exe "$@"

#!/bin/sh
# Build the benchmark from source, then run it.  Run from the
# repository root, with perf's arguments, e.g.
#   bash bench/perf/run.sh --workload t1-cold --seed 1 --seconds 20 --trace 0
#   bash bench/perf/run.sh run --out base.json
set -e
# Build inside the checkout only: no shared build cache.
export DUNE_CACHE=disabled
dune build --root . --display quiet bench/perf/perf.exe 1>&2
exec ./_build/default/bench/perf/perf.exe "$@"

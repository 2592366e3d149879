#!/bin/sh
# Hold a benchmark result to the committed work units.
#
#   bash bench/perf/run.sh run --seed 1 --seconds 1 --out wu.json
#   sh .github/check-work-units.sh wu.json
#
# Work units are exact counts, the same on every run, so the check is
# equality: it fails when any workload's work_units differ from
# .github/work_units.json in either direction, when the two name
# different workloads, or when any request failed.  A change that moves
# the numbers commits the new ones in the same change.
set -e
committed="$(dirname "$0")/work_units.json"
jq -r --slurpfile want "$committed" '
  .workloads as $got
  | $want[0] as $w
  | [([$w, $got] | map(keys[]) | unique)[] as $n
     | { name: $n,
         want: $w[$n],
         got: $got[$n].metrics.work_units.value,
         failed: $got[$n].failed }] as $rows
  | ($rows[]
     | "\(.name): committed \(.want), measured \(.got), failed requests \(.failed)"),
    (if all($rows[]; .want != null and .got == .want and .failed == 0)
     then "work units match the committed numbers"
     else error("work units differ from the committed numbers, or a request failed")
     end)
' "$1"

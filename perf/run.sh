#!/bin/sh
# Build the benchmark from source, then run it with the given arguments:
#   sh perf/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   sh perf/run.sh --smoke
# Run from the repository root. Build output stays in ./_build; the
# shared dune cache is disabled so nothing is written outside the tree.
set -e
DUNE_CACHE=disabled dune build --root . --display quiet ./perf/main.exe >&2
exec ./_build/default/perf/main.exe "$@"

#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run it.
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout.  The build goes to _build/ (dune's
# shared cache is off, so nothing is written outside the checkout).
# The last line of standard output is the JSON result; build messages go
# to standard error.  Exits non-zero, without a result, when the build
# fails.
set -u
cd "$(dirname "$0")/.." || exit 1
if ! dune build --root . --cache=disabled ./perfbench/bench/main.exe 1>&2; then
  echo "perfbench: build failed" >&2
  exit 1
fi
PERFBENCH_NPROC="$(nproc 2>/dev/null || echo unknown)" \
  exec ./_build/default/perfbench/bench/main.exe "$@"

#!/usr/bin/env bash
# Builds the server and the suite from source, then runs one workload
# of the suite in the form BENCHMARK.json's command gives:
#
#   bash bench/suite/run.sh --workload scan-large --seed 7 --seconds 10 --trace 0
#
# Run from the root of a checkout.  Build output and the report go to
# stderr; the last line of stdout is the result.
set -euo pipefail
dune build --root . bin/standoff_server.exe bench/suite/main.exe 1>&2
exec ./_build/default/bench/suite/main.exe run "$@"

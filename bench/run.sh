#!/usr/bin/env bash
# Entry point of the benchmark (the "command" of BENCHMARK.json).
#
#   bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       builds the program and runs one workload; the last line of standard
#       output is the result object.
#   bench/run.sh
#       builds once, validates BENCHMARK.json against the program, then runs
#       the whole suite with -seed ${SEED:-1} and writes
#       bench/out/<timestamp>.json plus the traced runs' span dumps
#       (bench/out/<timestamp>.spans.<workload>.json).
#
# Everything the build and the runs leave behind stays under .bench_build/
# (and bench/out/) in the checkout: the Go build cache, temporary files and
# the serve-wal log directories, which the program removes as it goes.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local

(cd "$here" && go build -o "$build/semstm-bench" .)
cd "$root"

if [ "$#" -gt 0 ]; then
	exec "$build/semstm-bench" "$@"
fi

"$build/semstm-bench" -validate-only
# Wall-clock budget: each of the 5 workloads runs once untraced and once
# traced for run_seconds of measuring plus set-up, warm-up and checks — about
# 12-20 s per run, 3 minutes in all; the program prints each run's wall time
# and the projection onto the driver's 114 runs against its 3420 s cap.
stamp="$(date +%Y%m%d-%H%M%S)"
exec "$build/semstm-bench" -seed "${SEED:-1}" \
	-out "bench/out/$stamp.json" -spans "bench/out/$stamp.spans"

#!/usr/bin/env sh
# check.sh — correctness gate for this repo. Runs, failing fast on the first
# error: gofmt, tier-1 (go build + go test), go vet, the race-instrumented
# robustness suites (-short unless CHECK_LONG=1: minutes, not seconds), the
# 0-allocs/op barrier gate, 10 s of fuzzing each for the wire codec's two
# differential targets, vet + tests of the bench/ instrument, the quick
# crash-recovery matrix, and every acceptance gate of
# internal/experiments/gates.go — the ones `go run ./cmd/semstm-bench -list`
# prints under "Acceptance gates", with the bar each one defends.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt -l =="
UNFORMATTED="$(gofmt -l .)"
if [ -n "$UNFORMATTED" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$UNFORMATTED" >&2
    exit 1
fi

echo "== tier-1: go build ./... =="
go build ./...

echo "== tier-1: go test ./... =="
go test ./...

echo "== go vet ./... =="
go vet ./...

RACE_PKGS="./stm/... ./internal/core/... ./internal/norec/... ./internal/tl2/... ./internal/htm/... ./internal/sgl/... ./internal/shard/... ./internal/wal/... ./internal/server/... ./internal/opacity/..."

if [ "${CHECK_LONG:-0}" = "1" ]; then
    echo "== go test -race (full chaos sweep) =="
    # shellcheck disable=SC2086
    go test -race -count=1 $RACE_PKGS
else
    echo "== go test -race -short (set CHECK_LONG=1 for the full sweep) =="
    # shellcheck disable=SC2086
    go test -race -short -count=1 $RACE_PKGS
fi

# The fixed 5000x iteration count is load-bearing: one warm-up allocation
# amortizes to <0.5 allocs/op (which -benchmem truncates to 0) only at high
# counts, while a genuine per-transaction allocation still shows as >= 1.
echo "== allocation gate: BenchmarkBarrier* must be 0 allocs/op =="
ALLOC_OUT="$(go test ./stm -run '^$' -bench 'BenchmarkBarrier' -benchtime 5000x -benchmem)"
echo "$ALLOC_OUT" | awk '
    /^BenchmarkBarrier/ {
        if ($(NF-1) + 0 != 0 || $NF != "allocs/op") {
            print "ALLOC REGRESSION: " $0
            bad = 1
        }
    }
    END { exit bad }
' || { echo "allocation gate failed (see lines above)" >&2; exit 1; }

# The wire codec held to encoding/json (internal/server/wire_test.go); tier-1
# above already ran both seed corpora and TestWireAllocs.
for FUZZ in FuzzWireRequest FuzzWireResponse; do
    echo "== fuzz: $FUZZ, 10s =="
    go test ./internal/server -run '^$' -fuzz "^$FUZZ\$" -fuzztime 10s
done

# bench/ is its own module, so the root ./... above does not reach it.
echo "== bench/: go vet + go test (BENCHMARK.json <-> program validation, histograms) =="
go vet -C bench ./...
go test -C bench ./...

echo "== crash-recovery matrix, quick subset (scripts/crash_matrix.sh for the sweep) =="
sh scripts/crash_matrix.sh quick

# The gate list comes from the registry itself, so adding, renaming or
# deleting a gate needs no edit here.
GATES="$(go run ./cmd/semstm-bench -list | awk '/^Acceptance gates/ { on = 1; next } on && /^  [a-z]/ { print $1 }')"
if [ -z "$GATES" ]; then
    echo "semstm-bench -list printed no acceptance gates" >&2
    exit 1
fi
for GATE in $GATES; do
    echo "== $GATE =="
    go run ./cmd/semstm-bench -gate "$GATE"
done

echo "== ok =="

#!/usr/bin/env sh
# profile.sh — capture CPU and heap (allocation) pprof profiles of one
# semstm-bench run, so a perf investigation starts from a flame graph instead
# of guesses.
#
# Usage:
#   scripts/profile.sh [semstm-bench flags...]
#
# Without arguments it profiles `-exp fig1a`; arguments replace that, e.g.
#   scripts/profile.sh -exp fig1c -threads 4 -dur 1s
#   scripts/profile.sh -gate servegate
#
# Environment:
#   PROFILE_DIR  output directory (default: profiles/)
#
# Writes $PROFILE_DIR/{cpu.pprof,mem.pprof} and prints the top-10 of each
# profile. Inspect interactively with:
#   go tool pprof -http=:8080 profiles/cpu.pprof
set -eu

cd "$(dirname "$0")/.."

OUT="${PROFILE_DIR:-profiles}"
mkdir -p "$OUT"

[ "$#" -gt 0 ] || set -- -exp fig1a

go run ./cmd/semstm-bench \
    -cpuprofile "$OUT/cpu.pprof" -memprofile "$OUT/mem.pprof" "$@"

echo
echo "== top CPU (cumulative) =="
go tool pprof -top -nodecount=10 "$OUT/cpu.pprof" | sed -n '1,20p'
echo
echo "== top allocation sites (alloc_space) =="
go tool pprof -top -nodecount=10 -sample_index=alloc_space "$OUT/mem.pprof" | sed -n '1,20p'
echo
echo "profiles in $OUT/: cpu.pprof mem.pprof (go tool pprof -http=:8080 <file>)"

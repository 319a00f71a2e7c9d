#!/usr/bin/env bash
# Builds the repository benchmark from this checkout's source and runs
# it, passing every argument through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload dense-solve --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the result files stay under
# .bench_build/ in the checkout; nothing outside it is read or written
# apart from the Go toolchain itself.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"

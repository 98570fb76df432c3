#!/usr/bin/env bash
# Builds the load generator and rbacd from this checkout, then runs one
# benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload hot_reads --seed 1 --seconds 8 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, temporary files, both binaries, the
# generated policy, node logs and span files. Build output goes to
# stderr; the last line on stdout is the result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/home" "$out/run"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home" \
	GOPATH="$out/home/go" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -C "$root/perfbench" -o "$out/bin/perfbench" . >&2
go build -o "$out/bin/rbacd" ./cmd/rbacd >&2
exec "$out/bin/perfbench" -rbacd "$out/bin/rbacd" -workdir "$out/run" "$@"

#!/usr/bin/env bash
# Builds the layerbench benchmark from this checkout and runs it with the
# given arguments, from the repository root:
#
#   bash layerbench/run.sh --workload pdr-grid --seed 1 --seconds 12 --trace 0
#
# Everything the build writes (binary, Go build cache, span files) goes
# under .bench_build in the repository root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
(
	cd "$root/layerbench"
	GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOCACHE="$out/gocache" \
		GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
		go build -buildvcs=false -o "$out/layerbench" .
) >&2
exec "$out/layerbench" --root "$root" --spans-dir "$out/spans" "$@"

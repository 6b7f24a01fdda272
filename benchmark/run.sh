#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash benchmark/run.sh --workload <name|all> --seed N --seconds S --trace 0|1
#
# Everything the Go toolchain writes (build cache, module cache, temporary
# files, telemetry) goes under .bench_build at the repository root, so a
# run reads and writes nothing outside the checkout but the toolchain
# itself. The build fails, and the script exits non-zero without a result,
# when the repository's sources are missing.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
go build -C benchmark -o "$out/benchmark" .
exec "$out/benchmark" "$@"

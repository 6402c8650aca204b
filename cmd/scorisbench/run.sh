#!/usr/bin/env bash
# Builds scorisbench and the scoris CLI it drives, then runs the
# benchmark with the arguments given. Everything the build and the run
# write stays under .bench_build/ at the root of the checkout: the Go
# build cache, temporary files, both binaries and the generated banks.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off

go -C "$here" build -o "$build/scorisbench" .
go -C "$here" build -o "$build/scoris" repro/cmd/scoris

cd "$root"
exec "$build/scorisbench" -scoris "$build/scoris" -workdir "$build/work" \
	-expected "$here/expected.json" "$@"

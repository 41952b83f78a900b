#!/usr/bin/env bash
# Builds chainbench from source and runs it with the given arguments:
#
#   bash benchmark/run.sh --workload exec_lowconflict --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays inside the checkout: the
# Go build cache, temporary files and the binary under .bench_build/,
# data dirs and trace files under benchmark/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp" "$here/out"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

(cd "$here" && go build -o "$build/chainbench" ./chainbench)
exec "$build/chainbench" -out "$here/out" "$@"

#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it:
#
#   bash svcbench/run.sh --workload ingest|estimate|mixed --seed N --seconds S --trace 0|1
#
# Run from the repository root. Everything the build and the run write
# goes under .bench_build/ in the checkout: the Go build cache, the
# binary, checkpoint directories and trace files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/gocache" "$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local CGO_ENABLED=0

# Without the repository beside it (../go.mod) this build fails, and so
# does the run, before printing any result.
go build -C "$root/svcbench" -o "$out/svcbench" .
exec "$out/svcbench" -workdir "$out/work" "$@"

#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the
# given arguments. Run from the repository root, e.g.
#   bash perfbench/run.sh --workload nat64 --seed 1 --seconds 10 --trace 0
# The binary, the Go build cache and every other file the toolchain
# writes stay under .bench_build/ in the checkout.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"

#!/usr/bin/env bash
# Builds drad and the benchmark harness from this checkout, then runs the
# harness with the given arguments. Every build product, cache and state
# directory stays under .bench_build (or $CARGO_TARGET_DIR) in the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out = /* ]] || out="$root/$out"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
export TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
go build -o "$out/drad" ./cmd/drad
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -drad "$out/drad" -work "$out" "$@"

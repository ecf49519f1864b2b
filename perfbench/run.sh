#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs it; every
# argument is passed through (see README.md). Build outputs and the Go build
# cache stay in .bench_build at the checkout root, and the toolchain is kept
# offline, so a run reads and writes only inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOFLAGS=
go -C "$root/perfbench" build -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" "$@"

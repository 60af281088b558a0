#!/usr/bin/env bash
# Builds perfbench from the checkout it is run in and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload sweep-div180 --seed 1 --seconds 20 --trace 0
#
# Build outputs, temporary files, the Go build and module caches, the go
# command's configuration directory and profiles all stay under .bench_build
# in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export TMPDIR="$out/tmp" GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench-bin" .) >&2
exec "$out/perfbench-bin" "$@"

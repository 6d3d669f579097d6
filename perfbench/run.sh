#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the
# given arguments (see main.go). Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload mesh64-heavy --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary and the result files stay under
# .bench_build in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME and GOTMPDIR keep the go command's config, telemetry and
# scratch files inside the checkout too.
XDG_CONFIG_HOME="$out/config" GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off \
	go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"

#!/usr/bin/env bash
# Builds and runs the ukserver benchmark; run it from the repository root:
#
#   bash ukbench/run.sh --workload solve-mix --seed 1 --seconds 15 --trace 0
#   bash ukbench/run.sh --smoke
#
# The Go build cache, temporary files and every run's output live under
# .bench_build, so a run reads and writes only inside the checkout.
set -euo pipefail
# Fall back to the Go distribution's default install directory when go is
# not on PATH.
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C ukbench build -o "$out/bin/ukbench" .
exec "$out/bin/ukbench" -root "$root" -out "$out" "$@"

#!/usr/bin/env bash
# Builds tlrbench and the tlrserve it drives, then runs tlrbench with the
# given arguments.  Run it from the repository root:
#
#   bash bench/run.sh -seed 1                  # all four workloads
#   bash bench/run.sh --workload serve-read --seed 3 --seconds 15 --trace 0
#
# Every build product, Go cache and scratch file stays under .bench_build/
# in the current directory, so a run touches nothing outside the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/bench/go.mod" ]; then
	echo "run.sh: run from the repository root (bench/go.mod not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/work"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

# go build leaves an up-to-date binary untouched, so only the first run in
# a checkout pays for compiling.
(
	cd "$root/bench"
	go build -o "$out/bin/tlrbench" ./tlrbench
	go build -o "$out/bin/tlrserve" github.com/tracereuse/tlr/cmd/tlrserve
) >&2

exec "$out/bin/tlrbench" -server "$out/bin/tlrserve" -workdir "$out/work" "$@"

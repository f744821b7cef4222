#!/usr/bin/env bash
# Builds the benchmark and the dvserve binary from the checkout's sources,
# then runs the benchmark with the given arguments:
#
#   bash _perfbench/run.sh --workload paper-suite --seed 1 --seconds 30 --trace 0
#
# Run it from the root of a checkout. Everything it builds or writes lands
# in .bench_build/ (the Go build cache included), so nothing outside the
# checkout is touched and the network is never contacted.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/dvserve" ]; then
	echo "perfbench: run from the root of a dvsync checkout (go.mod and cmd/dvserve not found)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's local telemetry counters in the
# checkout too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

go build -C "$root" -o "$out/dvserve" ./cmd/dvserve
go build -C "$root/_perfbench" -o "$out/perfbench" .

exec "$out/perfbench" -root "$root" -dvserve "$out/dvserve" "$@"

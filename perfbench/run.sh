#!/usr/bin/env bash
# Builds the pipeline benchmark and the daemons it drives (cmd/availd,
# cmd/availgw, cmd/tracker) from this checkout, then runs it. Every
# build product and run file stays under .bench_build in the checkout.
#
# Usage, from the repository root:
#   bash perfbench/run.sh --workload stream-durable --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 20
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/availd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a swarmavail checkout (go.mod, cmd/availd and perfbench/ must exist)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOTELEMETRY=off

go build -buildvcs=false -o "$out/bin/" ./cmd/availd ./cmd/availgw ./cmd/tracker >&2
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" "$@"

#!/usr/bin/env bash
# Builds wfserver and the wfperf program from this checkout, then runs one
# benchmark run. Run from the repository root:
#
#   bash wfperf/run.sh --workload mem-read-small --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under $CARGO_TARGET_DIR
# (default .bench_build) in the checkout. The durable workload's data goes
# to a private tmpfs mounted at .bench_build/tmpfs inside a new mount
# namespace, so it lives in memory and vanishes when the run ends.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/wfserver ] || [ ! -f wfperf/go.mod ]; then
	echo "wfperf: run from the repository root (cmd/wfserver not found)" >&2
	exit 2
fi

out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
mkdir -p "$GOTMPDIR" "$out/bin" "$out/tmpfs"

go build -o "$out/bin/wfserver" ./cmd/wfserver
(cd wfperf && go build -o "$out/bin/wfperf" .)

cmd=("$out/bin/wfperf" --server "$out/bin/wfserver" --data "$out/tmpfs" --trace-dir "$out/wfperf" "$@")
mount_and_run='mount -t tmpfs -o size=1g wfperf "$1" && shift && exec "$@"'
for ns in "unshare -m --propagation private" "unshare -r -m --propagation private"; do
	if $ns true 2>/dev/null; then
		exec $ns sh -c "$mount_and_run" sh "$out/tmpfs" "${cmd[@]}"
	fi
done
# No mount namespace: the in-memory workloads still run; the durable one
# refuses a data directory that is not tmpfs.
exec "${cmd[@]}"

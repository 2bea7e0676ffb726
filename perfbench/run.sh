#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload sim-base --seed 1 --seconds 35 --trace 0
#
# The binary, the Go build cache and configuration, and the run's scratch
# files stay under .bench_build (or $CARGO_TARGET_DIR when set) inside the
# checkout.
set -euo pipefail
root=$PWD
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --work "$out/perfbench-work" "$@"

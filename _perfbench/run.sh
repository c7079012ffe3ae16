#!/usr/bin/env bash
# Builds the benchmark harness from this checkout's sources and runs it.
# Run from the repository root:
#
#   bash _perfbench/run.sh --workload fleet-echo --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, the binary, and the
# traced run's span and profile files.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/home"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOPATH=$out/home/go GOMODCACHE=$out/home/go/pkg/mod
export HOME=$out/home XDG_CONFIG_HOME=$out/home/.config XDG_CACHE_HOME=$out/home/.cache
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off

(cd "$here" && go build -o "$out/perfbench" .)

# The commit the result belongs to; a checkout without git history is
# identified by a hash of its Go sources instead.
if [ -z "${PERFBENCH_COMMIT:-}" ]; then
	if [ -e "$root/.git" ]; then
		PERFBENCH_COMMIT=$(git -C "$root" rev-parse --short=12 HEAD)
	else
		PERFBENCH_COMMIT=tree-$(cd "$root" && find internal go.mod -type f \( -name '*.go' -o -name go.mod \) |
			LC_ALL=C sort | xargs cat | sha256sum | cut -c1-12)
	fi
	export PERFBENCH_COMMIT
fi

exec "$out/perfbench" --out "$out/trace" "$@"

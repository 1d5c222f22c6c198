#!/usr/bin/env bash
# Builds the benchmark from the tree it runs in, then runs it. Run from the
# root of the repository:
#   bash perfbench/run.sh --workload census --seed 1 --seconds 10 --trace 0
# The binary, the Go build cache, scratch stores and span files stay under
# .bench_build in that directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "${out}/gotmp"
# Everything the toolchain writes stays under .bench_build; nothing is fetched.
export GOCACHE="${out}/gocache" GOTMPDIR="${out}/gotmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOPROXY=off
go -C "${here}" build -buildvcs=false -o "${out}/perfbench" . >&2
PERFBENCH_GIT_REV="$(git rev-parse HEAD 2>/dev/null || true)"
export PERFBENCH_GIT_REV
exec "${out}/perfbench" "$@"

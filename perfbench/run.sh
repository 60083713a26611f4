#!/usr/bin/env bash
# Builds the dmlscale benchmark from the sources of the checkout it sits in
# and runs it. Every build product stays under .bench_build/ in the checkout.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash perfbench/run.sh compare [-bounds BENCHMARK.json] <parent-dir> <change-dir>
set -euo pipefail
bench_dir=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$bench_dir")
build="$root/.bench_build/perfbench"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$bench_dir" && go build -o "$build/perfbench" .) >&2
cd "$root"
exec "$build/perfbench" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every file it
# writes (Go build cache, binary, temporary data, span traces) under
# .bench_build/ in the checkout.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Workloads: figure-sweep, chip-channel, protocol-engine, authority.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=""
export GOWORK=off
export GOPROXY=off
export GOSUMDB=off
export GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -p 2 -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" --trace-dir "$out/trace" "$@"

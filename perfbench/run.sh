#!/usr/bin/env bash
# Builds queryvisd and the benchmark program from this checkout's sources,
# then runs one benchmark invocation. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-cold --seed 1 --seconds 40 --trace 0
#
# Workloads: serve-cold, fleet-hot, catalog-bulk. The last line of
# standard output is the result object; see perfbench/NOTES.md.
# Binaries, the Go build cache, the toolchain's own state (HOME) and span
# dumps stay under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/home/.config/go/telemetry"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# With telemetry in its default "local" mode, the go command forks a
# detached sidecar that outlives the build; "off" keeps it from starting.
printf 'off\n' >"$out/home/.config/go/telemetry/mode"

HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" go build -o "$out/bin/queryvisd" ./cmd/queryvisd
(cd perfbench && HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" -queryvisd "$out/bin/queryvisd" "$@"

#!/usr/bin/env bash
# The one entry point: build one binary in the foreground, then become it.
# No `go run`, no background jobs, no servers. Everything the build and the
# run write stays under benchmark/out (build cache and temp files included).
set -euo pipefail
dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$dir/out/tmp"
export GOCACHE="$dir/out/gocache" GOTMPDIR="$dir/out/tmp"
# The module needs nothing but the repository it sits in: no network, no
# toolchain switch, and no dependence on $HOME for a module cache.
export GOMODCACHE="$dir/out/gomodcache" GOPROXY=off GOTOOLCHAIN=local
# The go command keeps its env file and its telemetry counters in the user's
# configuration directory; that, too, is inside out/ for this build.
export XDG_CONFIG_HOME="$dir/out/config"
go build -C "$dir" -o out/mpibench .
exec "$dir/out/mpibench" -root "$dir/.." "$@"

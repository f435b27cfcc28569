#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the arguments given. Everything the Go
# toolchain writes (build cache, module cache, telemetry) is kept inside
# .bench_build/ so a run reads and writes only inside its checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out"
(
	cd "$here"
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off \
		go build -o "$out/makalu-bench" . >&2
)
cd "$root"
exec "$out/makalu-bench" "$@"

#!/usr/bin/env bash
# Builds thematicd and the wirebench load generator from this checkout's
# sources into .bench_build/, then runs the generator with the given
# flags (--workload, --seed, --seconds, --trace). Build output goes to
# standard error; the result is the last line of standard output.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
# Keep the toolchain's caches and temporary files inside the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" TMPDIR="$out/gotmp" \
	XDG_CONFIG_HOME="$out/config" GOMODCACHE="$out/gomod" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$root/wirebench" build -o "$out/wirebench" . >&2
go -C "$root" build -o "$out/thematicd" ./cmd/thematicd >&2
exec "$out/wirebench" --root "$root" "$@"

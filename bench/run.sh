#!/usr/bin/env bash
# Builds the benchmark into .bench_build at the root of the checkout (Go's
# caches included, so nothing is written outside the checkout) and runs it
# with the given arguments from the root.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off GOENV=off
go build -C bench -o "$out/octostore-bench" .
exec "$out/octostore-bench" "$@"

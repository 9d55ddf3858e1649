#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a
# checkout. Everything the build writes (the binary, the Go build and
# module caches, temp files, the toolchain's own counters) stays under
# .bench_build/ in that checkout. In a directory that lacks the
# repository's sources the build fails and so does this script.
set -euo pipefail
root="$(pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/gocache" "${build}/gopath" "${build}/tmp" "${build}/config"
export GOCACHE="${build}/gocache" GOPATH="${build}/gopath" GOMODCACHE="${build}/gopath/pkg/mod"
export GOTMPDIR="${build}/tmp" XDG_CONFIG_HOME="${build}/config"
export GOTOOLCHAIN=local GOPROXY=off
(cd "${root}/bench" && go build -o "${build}/iotbench" .)
exec "${build}/iotbench" "$@"

#!/bin/bash
# The command BENCHMARK.json names: builds the benchmark from source inside the
# checkout and runs it with the arguments given. `go run` alone would keep its
# build cache under $HOME; a benchmark may write only inside its checkout, so
# cache and binary go to .bench_build/ at the checkout's root.
set -eu
cd "$(dirname "$0")"
build=$(cd .. && pwd)/.bench_build
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$build/benchmark" .
exec "$build/benchmark" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 25 --trace 0
#
# Run from the root of the repository. Everything the build and the run
# write (the Go build cache, temporary files, the binary, traced spans)
# stays under .bench_build.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOWORK=off

# Stamp the commit only when the checkout is itself a git work tree, so
# the build never reads a repository outside it.
vcs=false
if [ -e "$root/.git" ]; then
	vcs=auto
fi
(cd "$root/perfbench" && go build -buildvcs="$vcs" -o "$out/perfbench" .)
exec "$out/perfbench" "$@"

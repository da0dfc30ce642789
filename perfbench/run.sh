#!/usr/bin/env bash
# Builds the whole-pipeline benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload cold-release --seed 1 --seconds 15 --trace 0
#
# Run it from the root of the repository. Everything the build and the run
# write (Go build cache, binary, cache and snapshot directories, span files)
# lands under .bench_build/ in the checkout. The last line of standard output
# is the JSON result; the lines before it are the human-readable report.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (need go.mod and perfbench/go.mod)" >&2
	exit 2
fi

out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/xdg-config" "$out/xdg-cache"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/xdg-config"
export XDG_CACHE_HOME="$out/xdg-cache"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOFLAGS=

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)

commit=unknown
if rev=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null); then
	commit=$rev
fi

exec "$out/perfbench" -workdir "$out/work" -commit "$commit" "$@"

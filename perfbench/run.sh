#!/usr/bin/env bash
# Builds netplaced and the perfbench generator from the source of this
# checkout, then runs one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload whatif-sweep --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binaries,
# server data directories, span files) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/netplaced" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the root of a netplace checkout (go.mod, cmd/netplaced and perfbench/ are required)" >&2
	exit 1
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/work" "$build/spans" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -o "$build/bin/netplaced" ./cmd/netplaced
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)

if [ -d "$root/.git" ] && commit=$(git -C "$root" rev-parse HEAD 2>/dev/null); then
	export PERFBENCH_COMMIT="$commit"
else
	sum=$(find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print0 | LC_ALL=C sort -z | xargs -0 cat | sha256sum)
	export PERFBENCH_COMMIT="src-sha256:${sum:0:16}"
fi

# Sequenced ingest keeps one batch in flight, so on two vCPUs every batch
# wakes an idle vCPU, and the hypervisor's wake-up latency (it shows as
# steal time) swung ingest-epochs' p50 by +-20% between identical runs.
# Its generator and server share one CPU instead; the other workloads
# keep both CPUs busy and run unpinned.
pin=()
case " $* " in
*" ingest-epochs "* | *"=ingest-epochs "*)
	if command -v taskset >/dev/null; then
		pin=(taskset -c "$(($(nproc) - 1))")
	fi
	;;
esac

exec "${pin[@]}" "$build/bin/perfbench" -bin "$build/bin/netplaced" -work "$build/work" -spans "$build/spans" "$@"

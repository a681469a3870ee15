#!/usr/bin/env bash
# Builds the benchmark program (perfbench) and the GEMM server
# (cmd/srumma-serve) from the checkout this script sits in, then runs
# perfbench. Run it from the checkout root:
#
#   bash perfbench/run.sh --workload serve-json-cache --seed 1 --seconds 45 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 45
#
# Everything the build and the runs leave behind goes under .bench_build/
# in the checkout: the Go build cache, the binaries, and the cluster
# workers' run directories.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/srumma-serve" ]; then
	echo "perfbench: $root is not a srumma checkout (no go.mod or cmd/srumma-serve)" >&2
	exit 2
fi
cd "$root"

out=.bench_build
mkdir -p "$out/bin" "$out/home" "$out/tmp"
# Keep the toolchain's caches, config and telemetry inside the checkout and
# never reach for the network.
export GOCACHE="$root/$out/gocache" GOMODCACHE="$root/$out/gomod" \
	HOME="$root/$out/home" XDG_CONFIG_HOME="$root/$out/home/.config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C perfbench -o "../$out/bin/perfbench" .
go build -C perfbench -o "../$out/bin/srumma-serve" srumma/cmd/srumma-serve

# The checkout may be a plain tree without git metadata.
commit=unknown
if [ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
	commit=$(git -C "$root" rev-parse HEAD)
fi
exec "$out/bin/perfbench" -serve-bin "$out/bin/srumma-serve" -tmpdir "$out/tmp" -commit "$commit" "$@"

#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark (a module of
# its own that imports repro/internal/... through a replace directive)
# with every Go cache and temp file kept inside the checkout, then runs
#   hemebench run --workload W --seed N --seconds S --trace 0|1
# The benchmark itself builds ./cmd/hemeserved from source on first use.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go tool keeps its env file and telemetry counters under the user
# config dir; point that into the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOWORK=off GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$out/hemebench" .)
exec "$out/hemebench" run -root "$root" "$@"

#!/usr/bin/env bash
# Shows that the benchmark agrees with itself: two complete runs of the same
# tree, judged against each other by the benchmark's own bounds (simulated
# metrics bit-identical, no failed operation), then one run on a second seed to
# show the checks do not pass by luck of seed 42.  About 8 minutes on 2 cores.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
mkdir -p "$out"
run() { cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"; }

run --out "$out/selfcheck-a.json"
run --out "$out/selfcheck-b.json"
run --compare "$out/selfcheck-a.json" "$out/selfcheck-b.json"
run --seed 7 --out "$out/selfcheck-seed7.json"
echo "selfcheck passed: two runs agree within the bounds, and seed 7 passes every check"

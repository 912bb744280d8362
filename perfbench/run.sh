#!/usr/bin/env bash
# Builds the release daemon, router and benchmark from this checkout, then
# runs one benchmark workload. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload wire-direct --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the last line of stdout is the result JSON.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$root/.bench_build}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p htsat-serve -p htsat-router >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/htsat-perfbench" --bin-dir "$target/release" "$@"

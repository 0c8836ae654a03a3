#!/usr/bin/env bash
# Builds the benchmark in release mode and runs it (see benchmark/README.md).
#
#   benchmark/run.sh [--workload NAME|all] [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]
#   benchmark/run.sh --repeat-check A B
#
# Builds into $CARGO_TARGET_DIR, by default the repository's own target/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cd "$root"

cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/ccr-benchmark"

if [ "${1:-}" = "--repeat-check" ]; then
  shift
  exec "$bin" repeat-check "$@"
fi
exec "$bin" run "$@"

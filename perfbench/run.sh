#!/usr/bin/env bash
# Builds the shipped `kibamrm-serve` binary and the benchmark from
# source, then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default perfbench/target); scratch files of a run go under it too.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
target="${CARGO_TARGET_DIR:-$here/target}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p kibamrm-net --bin kibamrm-serve >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/kibamrm-perfbench" \
    --serve-bin "$target/release/kibamrm-serve" \
    --work-dir "$target/perfbench-work" \
    "$@"

#!/usr/bin/env bash
# The benchmark's command: build the harness and the server it drives, then
# hand the arguments to `wfbench`. Run from the root of a checkout:
#   bash benchmark/run.sh --workload inmem_chain --seed 42 --seconds 16 --trace 0
set -euo pipefail

# One target directory for both builds (the harness is a workspace of its
# own), so the engine crates compile once and `repro` lands next to `wfbench`.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
# Spill files of the file backend go to the OS temp dir; keep them inside the
# checkout.
mkdir -p benchmark/out/tmp
export TMPDIR="$PWD/benchmark/out/tmp"

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
cargo build --release --offline --quiet -p wf-bench --bin repro
exec "$CARGO_TARGET_DIR/release/wfbench" "$@"

#!/usr/bin/env bash
# Build `repro` (the program the ledger measures) and the ledger itself in
# release mode, then run the ledger with this script's arguments. Run from
# the repository root:
#
#   bash crates/bench/src/bin/ledger/run.sh --workload quick --seed 1 --seconds 30 --trace 0
#   bash crates/bench/src/bin/ledger/run.sh run --out results.json
#   bash crates/bench/src/bin/ledger/run.sh compare BASE.json NEW.json
#
# Both builds share CARGO_TARGET_DIR (default: target), where the ledger
# also keeps its work files.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p bench --bin repro
cargo build --release --offline --quiet --manifest-path crates/bench/src/bin/ledger/Cargo.toml
exec "$CARGO_TARGET_DIR/release/ledger" "$@"

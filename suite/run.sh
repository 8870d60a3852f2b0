#!/usr/bin/env bash
# Builds the `sherlock` CLI (the daemon the serve workloads drive) and the
# `suite` benchmark into one target directory, then runs the suite with the
# given arguments. Run from the repository root:
#
#   bash suite/run.sh --workload infer-fleet --seed 1 --seconds 12 --trace 0
#   bash suite/run.sh compare --parent p*.txt --change c*.txt
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p sherlock-cli >&2
cargo build --release --offline --quiet --manifest-path suite/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/suite" "$@"

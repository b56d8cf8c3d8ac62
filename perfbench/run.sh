#!/usr/bin/env bash
# Builds the benchmark and the fpserved server from source, then runs
# one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build). Fails before printing a result when the
# sources are missing.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p fp-cli --bin fpserved >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
PERFBENCH_RUSTC="$(rustc --version)"
PERFBENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
export PERFBENCH_RUSTC PERFBENCH_COMMIT
exec "$CARGO_TARGET_DIR/release/perfbench" --fpserved "$CARGO_TARGET_DIR/release/fpserved" "$@"

#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green, in one command.
# Usage: scripts/tier1.sh   (run from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

# The repo's own packages (vendored crates under vendor/ are kept verbatim
# and excluded from the formatting gate).
PACKAGES=(dyncoterie coterie-base coterie-quorum coterie-simnet coterie-core
  coterie-markov coterie-harness coterie-bench coterie-lint)
FMT_ARGS=()
for p in "${PACKAGES[@]}"; do FMT_ARGS+=(-p "$p"); done

echo "==> cargo fmt --check"
cargo fmt "${FMT_ARGS[@]}" -- --check

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> perfbench tests (the repository benchmark builds and self-checks)"
# perfbench/ is its own cargo workspace over the crates by path, so the
# workspace build above does not compile it; its tests include the
# traced-replay equivalence check against StepDriver.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo bench --no-run"
cargo bench --no-run --workspace

echo "==> coterie-lint --deny (determinism, surface, lock, arith, baseline)"
# All rule families: D1-D3 token rules plus the flow-aware P1 surface
# matrix, P2 lock discipline, P3 codec arithmetic, and the P4 ratcheted
# allow baseline (crates/lint/baseline.json). The JSON report is left in
# target/ so PRs can diff per-rule finding and allow counts.
cargo run --release -p coterie-lint -- --deny --report target/lint-report.json
# The explain text doubles as the rules' documentation; smoke it so a
# renamed rule can't silently orphan its docs.
cargo run --release -p coterie-lint -- --explain surface >/dev/null

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> example smoke runs"
cargo run --release --example quickstart
cargo run --release --example failover
cargo run --release --example partial_writes

echo "==> experiment goldens (E7/E8/E13 stdout, byte for byte)"
# The scenario tables run on the LAN-scheduled StepDriver at the bins'
# default arguments. A change that moves any digit must regenerate the
# golden (bin > crates/harness/tests/data/<bin>.golden.txt) and explain
# the difference.
for exp in load_sharing partial_writes safety_ablation; do
  cargo run --release -q -p coterie-harness --bin "$exp" |
    diff - "crates/harness/tests/data/$exp.golden.txt"
done

echo "==> throughput smoke (closed-loop load driver, bounded)"
# Both coterie rules with batching+pipelining+group-commit enabled on the
# sim host; asserts committed progress and zero invariant violations.
cargo run --release -p coterie-bench --bin bench_throughput -- --smoke

echo "==> nemesis smoke (bounded storage-fault soak)"
# Fixed seeds, short schedules: 6 grid + 6 majority runs of crashes,
# partitions, torn writes, and journal corruption; exits non-zero on any
# epoch-safety, coherence, or 1SR violation. Dirty runs dump their flight
# recorder as causally-merged JSONL + timeline under target/.
cargo run --release -p coterie-harness --bin nemesis -- 6 42 1500

echo "==> trace determinism smoke"
# Same-seed runs must produce byte-identical trace JSONL (in-process and
# across a self-exec process boundary), and attaching a sink must not
# change a single journal/digest/output byte.
cargo test -q -p coterie-core --test determinism --test trace_determinism

echo "==> tracing-overhead gate (write-heavy sim cells vs checked-in baseline)"
# Re-runs the write-heavy deterministic sim cells with tracing disabled
# (the production default: no-op sink) and fails if throughput regresses
# more than 5% against BENCH_protocol_throughput.json. Sim cells run in
# simulated time, so on unchanged code this reproduces the artifact
# numbers exactly; the tolerance absorbs intentional protocol changes.
cargo run --release -p coterie-bench --bin bench_throughput -- --gate

echo "tier-1: all green"

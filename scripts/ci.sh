#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
#
# Usage: scripts/ci.sh
# Fails fast on the first broken stage so the cheap checks run first.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings + deprecated API use)"
# `-D deprecated` rejects any use of a deprecated std or dependency item;
# the workspace itself defines none.
cargo clippy --workspace --all-targets -- -D warnings -D deprecated

echo "==> pw-lint (determinism + concurrency/resource-safety rules + dependency policy)"
# Exits nonzero on any unallowlisted violation, stale lint.toml entry,
# "TODO: justify" placeholder reason, or dependency-policy breach; the
# JSON artifact (rule/path/line/evidence/allowed per finding) lands in
# target/pw-lint.json for editors and later CI stages. On failure, rerun
# in human form so the log shows the findings, not a JSON blob.
mkdir -p target
if ! cargo run -q -p pw-lint -- --deps --json > target/pw-lint.json; then
  cargo run -q -p pw-lint -- --deps || true
  echo "pw-lint FAILED (JSON artifact: target/pw-lint.json)" >&2
  exit 1
fi

echo "==> lint.toml hygiene (no placeholder reasons, pins still live)"
# `--fix-allowlist` baselines say `TODO: justify`; merging one is the
# allowlist equivalent of an empty commit message. Stale pins already
# fail the main lint stage above; this catches the placeholders even if
# someone lints with a narrowed --rules list.
if grep -n "TODO: justify" lint.toml; then
  echo "lint.toml has placeholder reasons — write the why" >&2
  exit 1
fi

echo "==> engine-thread protocol model (exhaustive interleavings, loom-style)"
# Dependency-free explicit-state DFS over every schedule of the bounded
# ingest queue + capacity-1 replies + shutdown + fail-safe protocol;
# asserts deadlock freedom, exactly-once replay, and shutdown delivery.
cargo test -q -p pw-server --features loom --test engine_model

echo "==> cargo test"
cargo test --workspace -q

echo "==> streaming_day example (a full-day engine window equals the batch verdict)"
# The example asserts the equivalence itself and exits nonzero if it
# breaks.
cargo run -q --example streaming_day

echo "==> campus_day example (two runs print the same bytes)"
# pw-lint's D1 rule does not scan examples/, so a print in hash order
# there is caught only by running the example twice. These two stages
# are the only ones that run an example.
cargo run -q --example campus_day > target/campus_day.1
cargo run -q --example campus_day > target/campus_day.2
cmp target/campus_day.1 target/campus_day.2

echo "==> perfbench builds against this tree (its own workspace; unit tests)"
# perfbench/ depends on the crates by path from a workspace of its own, so
# the workspace stages above never compile it. A public-API change that
# breaks its adapter fails here, not in the benchmark run.
cargo test -q --manifest-path perfbench/Cargo.toml

echo "==> fault-injection suite (chaos + checkpoint/restore + corruption recovery)"
cargo test -q --test chaos_injection --test checkpoint_roundtrip

echo "==> sketch accuracy gate (exact vs sketched tier, fast scale)"
# Campus-day suspect sets must be identical between tiers, the sketched
# bytes-per-host cap must hold, and dense-sweep scalar-stage divergence
# must stay within its bound; see crates/pw-repro/src/bin/sketch_accuracy.rs.
PW_FAST=1 cargo run -q -p pw-repro --bin sketch_accuracy -- --check

echo "==> theta_hm parity gate (exact vs bucketed mode, fast scale)"
# Bucketed mode below its cutoff must be bitwise-identical to the exact
# path on every synthetic fixture, campus-day suspect sets must not
# diverge, and forced coarse bucketing must keep machine-periodic-host
# agreement and suspect Jaccard above their floors; see
# crates/pw-repro/src/bin/theta_hm_parity.rs and BENCH_10.json.
PW_FAST=1 cargo run -q -p pw-repro --bin theta_hm_parity -- --check

echo "==> server smoke (serve / chaos send / kill -9 / resume / byte-level chaos proxy / diff vs batch)"
# A seeded multi-exporter day through `findplotters serve`, with injected
# disconnects, a mid-run SIGKILL, and a final stage streaming every
# exporter through the seeded byte-level chaos proxy (bit flips + mid-frame
# cuts, client retrying on capped backoff), must reach the same verdict as
# batch `findplotters` over the merged CSV, with HEALTH accounting for
# every corrupt frame.
if ./scripts/server_smoke.sh; then
  echo "server smoke OK"
else
  echo "server smoke FAILED" >&2
  exit 1
fi

echo "==> cargo bench --no-run (benches must keep compiling)"
cargo bench --workspace --no-run -q

echo "==> bench smoke (every pw-bench bench target executes)"
# `--test` runs each bench once without measuring: catches panics in bench
# setup/bodies (e.g. the theta_hm scaling grid, the checkpoint fixture)
# without paying bench time. `profiles` and `stream` run the extraction
# kernel and the engine's window close; `hash` checks that both hashers
# it compares agree before timing them; `analysis` runs the θ_hm
# statistics kernels (FD histograms, EMD, linkage, percentile and IQR);
# `figures` runs the paper-figure pipelines and `kad` the Kademlia
# overlay.
for bench in detect flow profiles stream hash analysis figures kad; do
  cargo bench -q -p pw-bench --bench "$bench" -- --test
done

echo "==> cargo doc (public docs must build cleanly, with no dangling links)"
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --workspace --no-deps -q

echo "==> miri smoke over the pure kernels (tolerated: skips without nightly miri)"
# Undefined-behaviour check on the side the lexical lints can't see.
# The toolchain may lack nightly or the miri component (offline images
# often do); that is reported loudly but tolerated — the stage gates
# only when it can actually run.
if cargo +nightly miri --version >/dev/null 2>&1; then
  if MIRIFLAGS="-Zmiri-disable-isolation" \
     cargo +nightly miri test -q -p pw-sketch -p pw-analysis 2>&1 | tail -20; then
    echo "miri OK"
  else
    echo "miri FAILED" >&2
    exit 1
  fi
else
  echo "miri SKIPPED: nightly toolchain with the miri component is not installed" >&2
fi

echo "CI OK"

#!/bin/sh
# Tier-1 verification gate: format, clippy, invariant lint, build, test.
# Every PR must pass this script from a clean checkout.
set -eu

cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
# Enforces clippy.toml (no host clock anywhere, no threads outside
# experiments::runner, no BinaryHeap outside netsim::eventq) and the
# root [workspace.lints] (unsafe_code, missing_docs, a reason on every
# #[allow]), which every member inherits.
cargo clippy --all-targets -- -D warnings

echo "==> gfw-lint"
# What rustc and clippy cannot see: budgets, cross-crate constants,
# manifests, call-graph taint, SAFETY comments, hot-path arithmetic.
cargo run -q -p gfw-lint

echo "==> cargo doc -D warnings"
# Every intra-doc link resolves, and public docs link no private item.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "==> cargo build --release --workspace"
# --workspace so member binaries (exp-all, exp-impair, ...) are built
# even from a clean checkout; the root package alone would not pull
# dependency bins in.
cargo build --release --workspace

echo "==> exp-scale --quick smoke"
# Hybrid-engine smoke: 10k bulk flows must all complete in-process.
./target/release/exp-scale --quick > /dev/null

echo "==> exp-scale --quick jobs determinism smoke (GFWSIM_JOBS=1 vs 2)"
# The quick run's cells are runner jobs, so the worker count must be a
# pure throughput knob: the seed-pure stdout is byte-identical.
GFWSIM_JOBS=1 ./target/release/exp-scale --quick > target/scale_jobs1.out
GFWSIM_JOBS=2 ./target/release/exp-scale --quick > target/scale_jobs2.out
cmp target/scale_jobs1.out target/scale_jobs2.out

echo "==> exp-baserate --quick smoke"
# Mixed-traffic smoke: one 5k-background mix point against the full
# GFW under the hybrid engine; every flow must be inspected.
./target/release/exp-baserate --quick > /dev/null

echo "==> differential properties (crypto fast paths, event queue, bulk bytes, response synthesis, replay filter)"
# Batched ChaCha20/Poly1305, tabled GHASH, the zero-copy codec and the
# AES-NI/CLMUL/SIMD hardware paths must stay byte-identical to the
# scalar reference paths, whole-block CFB/CTR must equal their
# byte-at-a-time references, stream sessions sharing one config's key
# must equal sessions with fresh keys, and the timer wheel must pop
# exactly what a BinaryHeap reference pops. Bulk segments carry a
# range, not bytes: the bytes synthesized when one is read must equal
# `fill_bulk` at its stream offset, under both engines and across a
# demotion flush.
cargo test -q -p sscrypto --test crypto_props
cargo test -q -p shadowsocks --test wire_props
cargo test -q --release -p netsim --test eventq_props
cargo test -q --release -p netsim --test flow_props
# A background server's response goes out as a description: the walk
# that sizes it must draw exactly what the generator draws, and the
# bytes synthesized from its seed must equal the eager response.
cargo test -q --release -p trafficgen --test profile_props
# The sparse-until-dense replay filter must answer every insert, lookup,
# clear and restart exactly as the dense-only filter it replaced.
cargo test -q --release -p shadowsocks --lib bloom

echo "==> forced-scalar crypto/entropy suites (GFWSIM_NO_HWCRYPTO=1)"
# The scalar oracles are shipping code, not test fixtures: the full
# sscrypto and analysis suites must pass with hardware dispatch masked
# exactly as they do with it active.
GFWSIM_NO_HWCRYPTO=1 cargo test -q -p sscrypto -p analysis

echo "==> cargo test --workspace"
# Includes the golden-output suite (crates/experiments/tests/golden.rs),
# whose exp-all case pins every experiment's quick-scale stdout;
# re-bless with GFWSIM_BLESS=1 after intended changes.
cargo test -q --workspace

echo "==> gfwsim-bench test suite"
# The benchmark is a separate workspace that builds these crates from
# source, so a public-API change that breaks its build, its
# scenario-equivalence checks or its golden renders fails here rather
# than in a later benchmark run. Writes only gfwsim-bench/target/.
cargo test --offline --release -q --manifest-path gfwsim-bench/Cargo.toml

echo "==> release tests with overflow checks (hot-path crates)"
# Release builds wrap integer arithmetic silently; this gate reruns the
# hot-path suites in release mode with overflow checks forced on, so
# any bare add/mul/shift the W1 lint under-approximates still traps
# here. Separate target dir — a RUSTFLAGS change would otherwise
# invalidate the main release cache.
CARGO_TARGET_DIR=target/ovf RUSTFLAGS="-C overflow-checks=on" \
    cargo test -q --release -p sscrypto -p netsim -p gfw-core -p shadowsocks

echo "==> exp-all --jobs 2 smoke (quick scale: fig2, fig7, fig10, fig11, table4)"
# fig7 and fig11 launch the most probes, so they exercise the order
# wake-up and the classifier hardest.
./target/release/exp-all --jobs 2 --only fig2,fig7,fig10,fig11,table4 > /dev/null

echo "==> exp-impair --jobs 2 smoke (quick scale)"
./target/release/exp-impair --jobs 2 > /dev/null

echo "ci.sh: all gates passed"

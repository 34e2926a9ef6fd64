#!/bin/sh
# Tier-1 verification gate: format, clippy, invariant lint, build, test.
# Every PR must pass this script from a clean checkout.
set -eu

cd "$(dirname "$0")"

# `step NAME` announces a step and prints the previous one's wall
# seconds (POSIX `date +%s`); a bare `step` closes the last one.
step_name=
step_start=0
step() {
    now=$(date +%s)
    if [ -n "$step_name" ]; then
        echo "    $step_name: $((now - step_start)) s"
    fi
    step_name=${1:-}
    step_start=$now
    if [ -n "$step_name" ]; then
        echo "==> $step_name"
    fi
}

step "cargo fmt --check"
cargo fmt --all --check

step "cargo clippy -D warnings"
# Enforces clippy.toml (no host clock anywhere, no threads outside
# experiments::runner, no BinaryHeap outside netsim::eventq), the
# root [workspace.lints] (unsafe_code, missing_docs, a reason on every
# #[allow], a SAFETY comment on every unsafe block and a `# Safety`
# section on every unsafe fn, private ones included), which every
# member inherits, and the panic lints (unwrap_used, expect_used,
# panic, unreachable) that core, netsim, shadowsocks, sscrypto and
# trafficgen turn on by crate attribute outside tests.
cargo clippy --all-targets -- -D warnings

step "gfw-lint"
# What rustc and clippy cannot see: the crypto hot path's allocation
# budget, manifests, call-graph taint, hot-path arithmetic.
cargo run -q -p gfw-lint

step "cargo doc -D warnings"
# Every intra-doc link resolves, and public docs link no private item.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

step "cargo build --release --workspace"
# --workspace so member binaries (exp-all, exp-scale, exp-baserate) are
# built even from a clean checkout; the root package alone would not
# pull dependency bins in.
cargo build --release --workspace

step "exp-scale --quick smoke"
# Hybrid-engine smoke: 10k bulk flows must all complete in-process.
./target/release/exp-scale --quick > /dev/null

step "exp-baserate --quick smoke"
# Mixed-traffic smoke: one 5k-background mix point against the full
# GFW under the hybrid engine; every flow must be inspected.
./target/release/exp-baserate --quick > /dev/null

step "differential properties (crypto fast paths, event queue, bulk bytes, response synthesis, replay filter)"
# Batched ChaCha20/Poly1305, tabled GHASH, the zero-copy codec and the
# AES-NI/CLMUL/SIMD/SHA-NI hardware paths must stay byte-identical to
# the scalar reference paths, HKDF over keyed HMAC states must equal
# the generic HMAC/HKDF oracle, whole-block CFB/CTR must equal their
# byte-at-a-time references, stream sessions sharing one config's key
# must equal sessions with fresh keys, and the timer wheel must pop
# exactly what a BinaryHeap reference pops, also when a refill drains a
# level-0 slot by its computed tick instead of walking it for the
# minimum, and when an entry is pushed under a sequence number reserved
# earlier (how the simulator queues SYN deadlines). Bulk segments carry a
# range, not bytes: the bytes synthesized when one is read must equal
# `fill_bulk` at its stream offset, under both engines and across a
# demotion flush.
cargo test -q -p sscrypto --test crypto_props
cargo test -q -p shadowsocks --test wire_props
cargo test -q --release -p netsim --test eventq_props
cargo test -q --release -p netsim --test flow_props
# A background server's response goes out as a description, sized
# from the draws that fix its length: that length must be the length
# of the bytes synthesized from its seed, and those bytes must equal
# the eager response.
cargo test -q --release -p trafficgen --test profile_props
# The sparse-until-dense replay filter must answer every insert, lookup,
# clear and restart exactly as the dense-only filter it replaced.
cargo test -q --release -p shadowsocks --lib bloom

step "forced-scalar crypto/entropy suites (GFWSIM_NO_HWCRYPTO=1)"
# The scalar oracles are shipping code, not test fixtures: the full
# sscrypto and analysis suites must pass with hardware dispatch masked
# exactly as they do with it active.
GFWSIM_NO_HWCRYPTO=1 cargo test -q -p sscrypto -p analysis

step "cargo test --workspace"
# Includes the determinism matrix (crates/experiments/tests/determinism.rs):
# exp-all.txt pins every experiment's quick-scale stdout, and the matrix
# holds a subset of it fixed across jobs, engine and hardware crypto,
# as it does exp-scale --quick across jobs; re-bless with
# GFWSIM_BLESS=1 after intended changes.
cargo test -q --workspace

step "gfwsim-bench test suite"
# The benchmark is a separate workspace that builds these crates from
# source, so a public-API change that breaks its build, its
# scenario-equivalence checks or its golden renders fails here rather
# than in a later benchmark run. Writes only gfwsim-bench/target/.
cargo test --offline --release -q --manifest-path gfwsim-bench/Cargo.toml

step "release tests with overflow checks (hot-path crates)"
# Release builds wrap integer arithmetic silently; this gate reruns the
# hot-path suites in release mode with overflow checks forced on, so
# any bare add/mul/shift the W1 lint under-approximates still traps
# here. Separate target dir — a RUSTFLAGS change would otherwise
# invalidate the main release cache.
CARGO_TARGET_DIR=target/ovf RUSTFLAGS="-C overflow-checks=on" \
    cargo test -q --release -p sscrypto -p netsim -p gfw-core -p shadowsocks

step "exp-all --jobs 2 smoke (quick scale: fig2, fig7, fig10, fig11, table4, impair)"
# fig7 and fig11 launch the most probes, so they exercise the order
# wake-up and the classifier hardest; impair runs the lossy links.
./target/release/exp-all --jobs 2 --only fig2,fig7,fig10,fig11,table4,impair > /dev/null

step
echo "ci.sh: all gates passed"

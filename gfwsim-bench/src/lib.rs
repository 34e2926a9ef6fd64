//! # gfwsim-bench — the repository's benchmark
//!
//! One command runs the four workloads users actually run, each in a
//! fresh child process, prints every end-to-end metric by name and unit
//! as `{median, q1, q3, min, max, n}`, and checks the outputs. A traced
//! pass splits each workload's time across the repository's modules by
//! timing only the benchmark's own calls into public functions; no
//! program code is instrumented.
//!
//! | workload | what runs | why |
//! |---|---|---|
//! | `bulk_100k` | 100,000 bulk transfers, hybrid engine, no GFW | event queue, handshakes and the fluid model do all the work; GFW and crypto changes must read "no change" |
//! | `mix_100k` | 100,000 protocol-profile flows + Shadowsocks at 1:1,000, observe-only GFW | the border tap scores every first payload; inspection and per-connection state dominate |
//! | `ss_20k` | the §3.1 run at two thirds of paper scale (20,000 triggers, 8,000 probers, libev-old / aes-256-cfb) | the write-heavy GFW: stored payloads, ~6k probes, server engines and the stream codec |
//! | `exp_all_quick` | every registry experiment at quick scale, 2 runner workers | what users run to regenerate the paper; the only parallel workload |
//!
//! All four are open loop in simulated time and pure functions of the
//! seed. The metric catalogue and its bounds live in [`metrics`]; the
//! README in this directory adds the layer → end-to-end map, the
//! measured noise behind the bounds, and how to run, trace and compare
//! two commits (a binary built against each, their windows run in
//! turn):
//!
//! ```text
//! cargo run --offline --release --manifest-path gfwsim-bench/Cargo.toml -- --runs 5 --trace --out a.txt
//! gfwsim-bench --runs 10 --compare PARENT_BINARY CHANGE_BINARY
//! ```
//!
//! `crates/bench`'s `bench-report` and the `BENCH_*.json` files are the
//! older perf record (three schemas, best-of-N without spread); they
//! stay only while `ci.sh` calls them.
//!
//! * [`workloads`] stages each workload from public entry points;
//! * [`host`] measures the host's speed, which end-to-end times are
//!   scaled by;
//! * [`trace`] records spans and brackets the GFW tap from outside;
//! * [`layers`] holds the unit-cost kernels;
//! * [`harness`] runs children and aggregates their reports;
//! * [`stats`], [`results`] and [`compare`] summarize, store and judge
//!   samples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod harness;
pub mod host;
pub mod layers;
pub mod metrics;
pub mod results;
pub mod stats;
pub mod trace;
pub mod workloads;

//! # trafficgen — workload generators
//!
//! The measurement experiments of §3.1, §4.1 and the base-rate sweep
//! need traffic:
//!
//! * the **random-data clients** of Table 4, which send one payload per
//!   connection with a *specified length and Shannon entropy*;
//! * plaintext control traffic (HTTP requests, TLS ClientHellos) that
//!   a competent passive detector must ignore;
//! * bulk-transfer clients for the hybrid engine, and per-protocol
//!   background [`profiles`] blended with Shadowsocks flows by [`mix`].
//!
//! This crate builds all of those, both as pure payload generators and
//! as `netsim` driver applications.

// A panic on malformed input would stand in for the reaction the paper
// measures: each remaining site carries a reasoned `#[expect]`.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod drivers;
pub mod mix;
pub mod payload;
pub mod profiles;

pub use drivers::{BulkTransferClient, RandomDataClient};
pub use mix::{MixHandles, MixSpec, TrafficMix};
pub use payload::{entropy_payload, http_request, tls_client_hello};
pub use profiles::Profile;

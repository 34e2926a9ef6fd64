//! # gfw-core — a behavioural model of the Great Firewall's Shadowsocks
//! detection pipeline
//!
//! This crate is the paper's *subject* made executable: every measured
//! behaviour of the GFW from *How China Detects and Blocks Shadowsocks*
//! (IMC 2020) is implemented as a component, wired together as an
//! on-path middlebox ([`gfw::Gfw`]) for the `netsim` substrate.
//!
//! The pipeline, in paper order:
//!
//! 1. **Passive traffic analysis** ([`passive`]): the first
//!    data-carrying packet of every border-crossing connection is
//!    scored on payload **length** (with the mod-16 stair-step
//!    preference of Fig 8) and **Shannon entropy** (Fig 9), after a
//!    plaintext-protocol exemption.
//! 2. **Probe scheduling** ([`scheduler`], [`delay`]): flagged payloads
//!    are stored and replayed after delays spanning 0.28 s to 570 h
//!    (Fig 7); random probes are paced "a few per hour" per server.
//! 3. **The probe taxonomy** ([`probe`]): replays R1–R5 and random
//!    NR1/NR2 (§3.2, Fig 2), with the staged escalation of §4.2 —
//!    R3/R4/R5 only fire once a server has answered stage-1 probes
//!    with data.
//! 4. **The prober fleet** ([`fleet`]): thousands of churned source
//!    addresses drawn from the Table 3 AS inventory, steered by a
//!    handful of centralized processes whose shared TCP-timestamp
//!    clocks (250/1000 Hz) reproduce the Fig 6 side channel.
//! 5. **Reaction classification** ([`classifier`]): per-server
//!    statistics over probe reactions, matching the Fig 10 signatures
//!    (§5.2.2's attacker inference).
//! 6. **Blocking** ([`blocking`]): unidirectional null-routing by port
//!    or by IP, gated on a "sensitivity" knob modelling §6's human
//!    factor, with lazy unblocking.

// A panic on malformed input would stand in for the reaction the paper
// measures: each remaining site carries a reasoned `#[expect]`.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod blocking;
pub mod classifier;
pub mod delay;
pub mod fleet;
pub mod gfw;
pub mod passive;
pub mod probe;
pub mod scheduler;

pub use gfw::{Gfw, GfwConfig, GfwHandle, VerdictCounters};
pub use probe::{ProbeKind, ProbeRecord, Reaction};

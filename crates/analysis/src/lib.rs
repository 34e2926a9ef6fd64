//! # analysis — measurement analysis toolkit
//!
//! The paper's observations (Figs 2–9, Tables 2–3) are statistical
//! summaries of packet captures. This crate holds the analysis
//! machinery: Shannon entropy, empirical CDFs and histograms, top-k
//! counting, TCP-timestamp sequence clustering (the §3.4 side channel
//! that exposes the probers' centralized processes), prober-IP set
//! overlap (Fig 4), and the autonomous-system attribution table shared
//! with the GFW model's prober fleet.

pub mod asn;
pub mod entropy;
pub mod overlap;
pub(crate) mod simd;
pub mod stats;
pub mod tsval;

pub use entropy::shannon_entropy;
pub use stats::{Cdf, Histogram};

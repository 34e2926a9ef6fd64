//! # gfwsim — a reproduction of *How China Detects and Blocks
//! Shadowsocks* (IMC 2020)
//!
//! This facade crate re-exports the whole workspace. The system has two
//! sides and a substrate:
//!
//! * **Defender** ([`shadowsocks`], [`defense`]): the Shadowsocks
//!   protocol (stream and AEAD constructions over from-scratch
//!   cryptography in [`sscrypto`]), executable behaviour profiles of
//!   the implementations the paper studied, and the §7 defenses
//!   (brdgrd window shaping, client-side first-flight shaping,
//!   consistent reactions).
//! * **Adversary** ([`gfw`]): the Great Firewall model — passive
//!   length/entropy detection, the seven probe types sent in stages
//!   from a churned fleet of prober addresses steered by a few
//!   centralized processes, reaction classification, and unidirectional
//!   blocking.
//! * **Substrate** ([`netsim`]): a deterministic discrete-event TCP/IP
//!   simulator carrying the header-level observables the paper
//!   fingerprints (TTLs, IP IDs, source ports, TCP timestamps).
//!
//! [`probesim`] is the paper's §5.1 prober-simulator tool plus the
//! §5.2.2 implementation-inference engine; [`experiments`] regenerates
//! every table and figure; [`analysis`] holds the measurement toolkit;
//! [`trafficgen`] the workload generators.
//!
//! ## Quickstart
//!
//! Interrogate a server implementation exactly like the GFW does:
//!
//! ```
//! use gfwsim::probesim::{infer, EngineOracle};
//! use gfwsim::shadowsocks::{Profile, ServerConfig};
//! use gfwsim::sscrypto::method::Method;
//!
//! // A pre-disclosure shadowsocks-libev server...
//! let config = ServerConfig::new(Method::Aes256Gcm, "secret", Profile::LIBEV_OLD);
//! let mut oracle = EngineOracle::new(config, 42);
//! let finding = infer(&mut oracle, 40);
//! assert!(finding.shadowsocks_like);
//! assert_eq!(finding.nonce_len, Some(32)); // salt length recovered
//!
//! // ...and the post-disclosure fix:
//! let fixed = ServerConfig::new(Method::Aes256Gcm, "secret", Profile::LIBEV_NEW);
//! let mut oracle = EngineOracle::new(fixed, 42);
//! assert!(!infer(&mut oracle, 40).shadowsocks_like);
//! ```
//!
//! See `examples/` for the full simulated-GFW pipeline and the defense
//! evaluations, and the `experiments` crate's `exp-all` binary for the
//! per-table/figure reports (`exp-all --only fig10` runs one).

pub use analysis;
pub use defense;
pub use experiments;
pub use gfw_core as gfw;
pub use netsim;
pub use probesim;
pub use shadowsocks;
pub use sscrypto;
pub use trafficgen;

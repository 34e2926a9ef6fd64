//! # probesim — the prober simulator (§5.1) and implementation
//! inference (§5.2.2)
//!
//! The paper's authors built a prober simulator to send all seven GFW
//! probe types at Shadowsocks implementations and record their
//! reactions; this crate is that tool. It drives the *pure*
//! [`shadowsocks::server::ServerConn`] engine (no network needed), maps
//! engine actions to the paper's TIMEOUT/RST/FIN-ACK/DATA taxonomy, and
//! regenerates the Fig 10 reaction matrices and Table 5 directly.
//!
//! On top sits the attacker's endgame: [`infer()`], which interrogates a
//! server with probe batteries and recovers the cryptographic
//! construction, IV/salt length (and hence sometimes the exact cipher),
//! address-type masking, replay-filter presence, and an
//! implementation+version guess — everything §5.2.2 says the GFW can
//! learn.

pub mod attacks;
pub mod infer;
pub mod matrix;
pub mod oracle;

pub use gfw_core::probe::Reaction;
pub use infer::{infer, Inference};
pub use matrix::{reaction_matrix, replay_table, MatrixRow};
pub use oracle::{EngineOracle, TargetModel};

//! Fixture crate with audited `unsafe` islands: its own lint tables
//! repeat the workspace's, relaxing only `unsafe_code`.

/// Nothing interesting.
pub fn noop() {}

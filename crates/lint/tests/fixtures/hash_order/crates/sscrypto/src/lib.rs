//! Fixture crypto crate with hash-ordered helpers a simulator calls.

use std::collections::HashMap;

/// The first key a cache yields: hash order, laundered through a helper.
pub fn first_key(keys: &HashMap<u32, u64>) -> u32 {
    keys.keys().next().copied().unwrap_or(0)
}

/// Diagnostic-only dump, waived with a reason.
#[expect(clippy::disallowed_methods, reason = "diagnostic trace only, never in sim output")]
pub fn trace_keys(keys: &HashMap<u32, u64>) -> usize {
    keys.keys().map(|k| *k as usize).next().unwrap_or(0)
}

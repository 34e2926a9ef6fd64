//! Fixture crypto crate with a hash-ordered helper (reachable -> R1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;

/// The first key a fresh cache yields: hash order, so nondeterministic.
pub fn first_key() -> u64 {
    let keys: HashMap<u64, u8> = HashMap::new();
    keys.keys().next().copied().unwrap_or(0)
}

/// Diagnostic-only dump, waived with a justification.
pub fn trace_keys() -> usize {
    let keys: HashMap<u64, u8> = HashMap::new();
    // gfwlint: allow(R1) -- diagnostic trace only, never in sim output
    keys.keys().map(|k| *k as usize).next().unwrap_or(0)
}

//! Fixture crypto crate with a wall-clock helper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Milliseconds since the epoch — nondeterministic.
pub fn now_ms() -> u64 {
    let t = std::time::SystemTime::now();
    t.duration_since(std::time::UNIX_EPOCH).map_or(0, |d| d.as_millis() as u64)
}

/// Diagnostic-only timer, waived with a justification.
#[expect(clippy::disallowed_methods, reason = "diagnostic trace only, never in sim output")]
pub fn trace_ms() -> u64 {
    let t = std::time::Instant::now();
    t.elapsed().as_millis() as u64
}

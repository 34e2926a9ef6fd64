//! Event scheduler seeded from the host clock, which `clippy.toml` bans.

use std::time::{Instant, SystemTime};

/// Pick a jitter value for the next probe event.
pub fn probe_jitter_ms() -> u64 {
    // `rand::thread_rng()` would not compile; the clock is the other leak.
    let start = Instant::now();
    start.elapsed().as_nanos() as u64 % 50
}

/// Stamp an event with wall-clock time (also banned in sim crates).
pub fn stamp() -> SystemTime {
    SystemTime::now()
}

//! Fixture crate whose manifest skips the workspace lints (H1).

/// Nothing interesting.
pub fn noop() {}

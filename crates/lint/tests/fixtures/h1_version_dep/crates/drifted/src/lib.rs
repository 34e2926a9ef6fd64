//! Fixture crate whose own lint tables drop a workspace lint (H1).

/// Nothing interesting.
pub fn noop() {}

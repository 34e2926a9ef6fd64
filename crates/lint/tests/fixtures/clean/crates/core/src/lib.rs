//! Fixture sim crate: clean under every rule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Nothing here for any rule to find.
pub fn idle() {}

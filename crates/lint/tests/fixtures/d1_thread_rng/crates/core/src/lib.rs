//! Fixture sim crate whose scheduler reads the host clock.

pub mod scheduler;

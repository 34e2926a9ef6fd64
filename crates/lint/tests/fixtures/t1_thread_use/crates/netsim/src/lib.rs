//! Fixture sim crate that spawns threads, which T1 forbids.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pool;

//! Fixture crypto crate: allocation-free, with one waived W1 site.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Strings and comments never trip a token rule: ".to_vec()" / Vec::new().
pub fn doc_only() -> &'static str {
    "x.clone() is fine inside a string"
}

/// Double a block counter whose bound the caller guarantees.
pub fn double(blocks: u64) -> u64 {
    // gfwlint: allow(W1)
    blocks * 2
}

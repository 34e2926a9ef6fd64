//! Fixture sim crate: clean under every rule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod probe;

/// Start-up glue, deliberately exempted from the panic budget.
pub fn config_note() -> u32 {
    "7".parse().unwrap() // gfwlint: allow(P1)
}

/// Strings and comments never trip a token rule: ".unwrap()" / panic!.
pub fn doc_only() -> &'static str {
    "x.unwrap() is fine inside a string"
}

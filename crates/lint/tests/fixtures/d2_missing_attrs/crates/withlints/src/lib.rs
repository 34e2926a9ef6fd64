//! Fixture crate that inherits the workspace lints.

/// Documented.
pub fn documented() {}

pub fn undocumented() {}

#[allow(dead_code)]
fn unused() {}

/// Reads through a raw pointer.
pub fn read(p: &u8) -> u8 {
    // SAFETY: `p` is a live reference.
    unsafe { std::ptr::read(p) }
}

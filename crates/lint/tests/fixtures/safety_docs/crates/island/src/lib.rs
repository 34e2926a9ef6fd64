//! Fixture crate with one audited `unsafe` module.

#[allow(unsafe_code, reason = "fixture: the audited island")]
mod kernels {
    /// Documented.
    ///
    /// # Safety
    ///
    /// `p` must be valid for reads.
    unsafe fn documented(p: *const u8) -> u8 {
        // SAFETY: the caller guarantees `p` is valid for reads.
        unsafe { *p }
    }

    /// Reads through `p`, with no `# Safety` section.
    unsafe fn undocumented(p: *const u8) -> u8 {
        // SAFETY: the caller guarantees `p` is valid for reads.
        unsafe { *p }
    }

    pub(crate) fn both(x: &u8) -> u8 {
        // SAFETY: `x` is a live reference.
        let a = unsafe { documented(x) };
        let b = unsafe { undocumented(x) };
        a ^ b
    }
}

/// Calls into the island.
pub fn read(x: &u8) -> u8 {
    kernels::both(x)
}

//! Wire framing that writes into the caller's buffer.

/// Append `data` to the frame being built in `out`.
pub fn frame_into(out: &mut Vec<u8>, data: &[u8]) {
    out.extend_from_slice(data);
}

//! The 64-byte block buffer shared by [`crate::md5`], [`crate::sha1`]
//! and [`crate::sha256`]: it collects input into whole blocks and
//! writes the Merkle–Damgård padding. Each hasher keeps only its chain
//! state and its compression function.

/// Block size in bytes of every hash in this crate.
pub(crate) const BLOCK_LEN: usize = 64;

/// Input not yet compressed, plus the message length so far.
#[derive(Clone)]
pub(crate) struct BlockBuffer {
    buf: [u8; BLOCK_LEN],
    len: usize,
    total: u64,
}

impl BlockBuffer {
    pub(crate) const fn new() -> Self {
        BlockBuffer {
            buf: [0; BLOCK_LEN],
            len: 0,
            total: 0,
        }
    }

    /// Absorb `data`, handing `compress` each completed block: first the
    /// buffered one, then every whole block of `data` in one slice,
    /// straight from the input without a copy.
    pub(crate) fn update(&mut self, mut data: &[u8], mut compress: impl FnMut(&[[u8; BLOCK_LEN]])) {
        self.total = self.total.wrapping_add(data.len() as u64);
        if self.len > 0 {
            let take = (BLOCK_LEN - self.len).min(data.len());
            let end = self.len.wrapping_add(take);
            self.buf[self.len..end].copy_from_slice(&data[..take]);
            self.len = end;
            data = &data[take..];
            if self.len < BLOCK_LEN {
                return;
            }
            compress(std::slice::from_ref(&self.buf));
            self.len = 0;
        }
        let (blocks, rest) = data.as_chunks::<BLOCK_LEN>();
        if !blocks.is_empty() {
            compress(blocks);
        }
        self.buf[..rest.len()].copy_from_slice(rest);
        self.len = rest.len();
    }

    /// Pad and compress the final block (two when the length does not
    /// fit after the `0x80` byte): `0x80`, zeros, then the message
    /// length in bits as the 8 bytes `encode_len` makes of it (MD5 is
    /// little-endian, SHA big-endian). The padding is written into the
    /// block in one step, not absorbed a byte at a time.
    pub(crate) fn finish(
        self,
        encode_len: fn(u64) -> [u8; 8],
        mut compress: impl FnMut(&[[u8; BLOCK_LEN]]),
    ) {
        let mut block = self.buf;
        block[self.len] = 0x80;
        block[self.len.wrapping_add(1)..].fill(0);
        if self.len >= BLOCK_LEN - 8 {
            compress(std::slice::from_ref(&block));
            block = [0; BLOCK_LEN];
        }
        block[BLOCK_LEN - 8..].copy_from_slice(&encode_len(self.total.wrapping_mul(8)));
        compress(std::slice::from_ref(&block));
    }
}

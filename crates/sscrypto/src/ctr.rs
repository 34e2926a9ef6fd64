//! AES-CTR keystream mode (NIST SP 800-38A).
//!
//! Backs the `aes-128-ctr` / `aes-192-ctr` / `aes-256-ctr` Shadowsocks
//! stream-cipher methods: the 16-byte IV that starts each stream is the
//! initial counter block, incremented big-endian per block.
//!
//! As in [`crate::cfb`], a stream holds its key schedule behind an
//! [`Arc`] so every stream of one config shares one expansion
//! ([`AesCtr::with_schedule`]). Counter blocks are all known in
//! advance, so whole blocks are generated four per
//! [`Aes::encrypt_blocks4`] call and XORed as `u128` lanes; only a
//! partial head and tail go byte by byte.

use crate::aes::{xor_blocks, Aes, BLOCK_LEN};
use crate::hw::CpuFeatures;
use std::sync::Arc;

/// Incremental CTR-mode keystream cipher. Encryption and decryption are
/// the same operation (XOR with the keystream).
#[derive(Clone)]
pub struct AesCtr {
    aes: Arc<Aes>,
    counter: [u8; 16],
    keystream: [u8; 16],
    used: usize,
}

impl AesCtr {
    /// Create a cipher with the given key (16/24/32 bytes) and 16-byte
    /// initial counter block (the Shadowsocks IV).
    pub fn new(key: &[u8], iv: &[u8; 16]) -> Self {
        Self::with_features(key, iv, CpuFeatures::get())
    }

    /// [`AesCtr::new`] with an explicit feature snapshot for the AES
    /// backend (differential tests pass [`CpuFeatures::none`]).
    pub fn with_features(key: &[u8], iv: &[u8; 16], feat: CpuFeatures) -> Self {
        Self::with_schedule(Arc::new(Aes::with_features(key, feat)), iv)
    }

    /// Start a stream on an already expanded key schedule, shared with
    /// every other stream under the same key.
    pub fn with_schedule(aes: Arc<Aes>, iv: &[u8; 16]) -> Self {
        AesCtr {
            aes,
            counter: *iv,
            keystream: [0; 16],
            used: BLOCK_LEN, // force generation on first use
        }
    }

    /// The current counter block; advances the counter as a 128-bit
    /// big-endian integer.
    fn take_counter(&mut self) -> [u8; 16] {
        let block = self.counter;
        self.counter = u128::from_be_bytes(block).wrapping_add(1).to_be_bytes();
        block
    }

    /// XOR the keystream into `data` in place. Stateful: successive calls
    /// continue the stream.
    pub fn apply(&mut self, data: &mut [u8]) {
        // `used < 16` only mid-block; a fresh block starts at 16.
        let head = data.len().min(BLOCK_LEN - self.used);
        let (head, rest) = data.split_at_mut(head);
        self.apply_bytes(head);
        let mut quads = rest.chunks_exact_mut(4 * BLOCK_LEN);
        for quad in quads.by_ref() {
            let mut ks = [0u8; 4 * BLOCK_LEN];
            for block in ks.chunks_exact_mut(BLOCK_LEN) {
                block.copy_from_slice(&self.take_counter());
            }
            self.aes.encrypt_blocks4(&mut ks);
            xor_blocks(quad, &ks);
        }
        let mut blocks = quads.into_remainder().chunks_exact_mut(BLOCK_LEN);
        for block in blocks.by_ref() {
            let counter = self.take_counter();
            xor_blocks(block, &self.aes.encrypt(&counter));
        }
        self.apply_bytes(blocks.into_remainder());
    }

    /// The byte-at-a-time path, for partial blocks.
    fn apply_bytes(&mut self, data: &mut [u8]) {
        for byte in data {
            if self.used == BLOCK_LEN {
                let counter = self.take_counter();
                self.keystream = self.aes.encrypt(&counter);
                self.used = 0;
            }
            *byte ^= self.keystream[self.used];
            self.used = self.used.wrapping_add(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    // NIST SP 800-38A F.5.1 CTR-AES128.Encrypt.
    #[test]
    fn sp800_38a_ctr_aes128() {
        let key = unhex("2b7e151628aed2a6abf7158809cf4f3c");
        let iv: [u8; 16] = unhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
            .try_into()
            .unwrap();
        let mut data = unhex(
            "6bc1bee22e409f96e93d7e117393172a\
             ae2d8a571e03ac9c9eb76fac45af8e51\
             30c81c46a35ce411e5fbc1191a0a52ef\
             f69f2445df4f9b17ad2b417be66c3710",
        );
        let want = unhex(
            "874d6191b620e3261bef6864990db6ce\
             9806f66b7970fdff8617187bb9fffdff\
             5ae4df3edbd5d35e5b4f09020db03eab\
             1e031dda2fbe03d1792170a0f3009cee",
        );
        let mut c = AesCtr::new(&key, &iv);
        c.apply(&mut data);
        assert_eq!(data, want);
    }

    // NIST SP 800-38A F.5.5 CTR-AES256.Encrypt (first two blocks).
    #[test]
    fn sp800_38a_ctr_aes256() {
        let key = unhex("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4");
        let iv: [u8; 16] = unhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
            .try_into()
            .unwrap();
        let mut data = unhex(
            "6bc1bee22e409f96e93d7e117393172a\
             ae2d8a571e03ac9c9eb76fac45af8e51",
        );
        let want = unhex(
            "601ec313775789a5b7a7f504bbf3d228\
             f443e3ca4d62b59aca84e990cacaf5c5",
        );
        let mut c = AesCtr::new(&key, &iv);
        c.apply(&mut data);
        assert_eq!(data, want);
    }

    #[test]
    fn roundtrip_and_statefulness() {
        let key = [9u8; 16];
        let iv = [3u8; 16];
        let plain: Vec<u8> = (0..100u8).collect();
        let mut buf = plain.clone();
        let mut enc = AesCtr::new(&key, &iv);
        // Apply in uneven chunks to exercise keystream carry-over.
        enc.apply(&mut buf[..7]);
        enc.apply(&mut buf[7..40]);
        enc.apply(&mut buf[40..]);
        assert_ne!(buf, plain);
        let mut dec = AesCtr::new(&key, &iv);
        dec.apply(&mut buf);
        assert_eq!(buf, plain);
    }

    #[test]
    fn counter_wraps_at_block_boundary() {
        // Counter block of all 0xff must wrap around to zero without panic.
        let key = [0u8; 16];
        let iv = [0xffu8; 16];
        let mut data = [0u8; 48];
        let mut c = AesCtr::new(&key, &iv);
        c.apply(&mut data);
        // Blocks 2 and 3 use counters 0x00..00 and 0x00..01.
        let aes = Aes::new(&key);
        let mut ctr0 = [0u8; 16];
        assert_eq!(&data[16..32], &aes.encrypt(&ctr0));
        ctr0[15] = 1;
        assert_eq!(&data[32..48], &aes.encrypt(&ctr0));
    }
}

//! AES-CFB128 mode (NIST SP 800-38A), as used by the classic
//! `aes-128-cfb` / `aes-256-cfb` Shadowsocks stream-cipher methods.
//!
//! CFB is self-synchronizing: the keystream for the next block is the
//! encryption of the previous *ciphertext* block, which is why the
//! encrypt and decrypt directions need distinct state handling.
//!
//! A stream holds its key schedule behind an [`Arc`]: a Shadowsocks
//! stream key is the password-derived master key, so every stream of
//! one config shares one expansion ([`AesCfb::with_schedule`]) and only
//! the IV is per stream.
//!
//! Whole 16-byte blocks are XORed as `u128` lanes; only a partial head
//! (finishing a block an earlier call left open) and a partial tail go
//! byte by byte. The two directions batch differently:
//!
//! * **Decryption** knows every keystream input up front — the IV or
//!   previous ciphertext block — so it encrypts four of them per
//!   [`Aes::encrypt_blocks4`] call, which pipelines on AES-NI.
//! * **Encryption** stays one block at a time: each block's keystream
//!   input is the ciphertext block just produced, so there is nothing
//!   to batch.

use crate::aes::{xor_blocks, Aes, BLOCK_LEN};
use crate::hw::CpuFeatures;
use std::sync::Arc;

/// Direction of a CFB cipher instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Producing ciphertext from plaintext.
    Encrypt,
    /// Recovering plaintext from ciphertext.
    Decrypt,
}

/// Incremental CFB128 cipher.
#[derive(Clone)]
pub struct AesCfb {
    aes: Arc<Aes>,
    register: [u8; 16],
    keystream: [u8; 16],
    used: usize,
    dir: Direction,
}

impl AesCfb {
    /// Create a cipher with the given key (16/24/32 bytes), 16-byte IV and
    /// direction.
    pub fn new(key: &[u8], iv: &[u8; 16], dir: Direction) -> Self {
        Self::with_features(key, iv, dir, CpuFeatures::get())
    }

    /// [`AesCfb::new`] with an explicit feature snapshot for the AES
    /// backend (differential tests pass [`CpuFeatures::none`]).
    pub fn with_features(key: &[u8], iv: &[u8; 16], dir: Direction, feat: CpuFeatures) -> Self {
        Self::with_schedule(Arc::new(Aes::with_features(key, feat)), iv, dir)
    }

    /// Start a stream on an already expanded key schedule, shared with
    /// every other stream under the same key.
    pub fn with_schedule(aes: Arc<Aes>, iv: &[u8; 16], dir: Direction) -> Self {
        AesCfb {
            aes,
            register: *iv,
            keystream: [0; 16],
            used: BLOCK_LEN,
            dir,
        }
    }

    /// Transform `data` in place, continuing the stream.
    pub fn apply(&mut self, data: &mut [u8]) {
        // `used < 16` only mid-block; a fresh block starts at 16.
        let head = data.len().min(BLOCK_LEN - self.used);
        let (head, rest) = data.split_at_mut(head);
        self.apply_bytes(head);
        // Past the head either `rest` is empty or the stream sits on a
        // block boundary, where `register` is the next keystream input.
        let tail = match self.dir {
            Direction::Encrypt => self.encrypt_blocks(rest),
            Direction::Decrypt => self.decrypt_blocks(rest),
        };
        self.apply_bytes(tail);
    }

    /// Encrypt the whole blocks of `data`, one at a time: each block's
    /// ciphertext is the next block's keystream input. Returns the
    /// partial tail.
    fn encrypt_blocks<'a>(&mut self, data: &'a mut [u8]) -> &'a mut [u8] {
        let mut blocks = data.chunks_exact_mut(BLOCK_LEN);
        for block in blocks.by_ref() {
            let ks = self.aes.encrypt(&self.register);
            xor_blocks(block, &ks);
            self.register.copy_from_slice(block);
        }
        blocks.into_remainder()
    }

    /// Decrypt the whole blocks of `data`, four per AES call while a
    /// 64-byte group remains: its keystream inputs are `register` and
    /// the group's first three ciphertext blocks, all known before any
    /// is decrypted. Returns the partial tail.
    fn decrypt_blocks<'a>(&mut self, data: &'a mut [u8]) -> &'a mut [u8] {
        let mut quads = data.chunks_exact_mut(4 * BLOCK_LEN);
        for quad in quads.by_ref() {
            let mut ks = [0u8; 4 * BLOCK_LEN];
            ks[..BLOCK_LEN].copy_from_slice(&self.register);
            ks[BLOCK_LEN..].copy_from_slice(&quad[..3 * BLOCK_LEN]);
            self.register.copy_from_slice(&quad[3 * BLOCK_LEN..]);
            self.aes.encrypt_blocks4(&mut ks);
            xor_blocks(quad, &ks);
        }
        let mut blocks = quads.into_remainder().chunks_exact_mut(BLOCK_LEN);
        for block in blocks.by_ref() {
            let ks = self.aes.encrypt(&self.register);
            self.register.copy_from_slice(block);
            xor_blocks(block, &ks);
        }
        blocks.into_remainder()
    }

    /// The byte-at-a-time path, for partial blocks.
    fn apply_bytes(&mut self, data: &mut [u8]) {
        for byte in data {
            if self.used == BLOCK_LEN {
                self.keystream = self.aes.encrypt(&self.register);
                self.used = 0;
            }
            let input = *byte;
            *byte ^= self.keystream[self.used];
            // Feed the ciphertext byte back into the shift register.
            self.register[self.used] = match self.dir {
                Direction::Encrypt => *byte,
                Direction::Decrypt => input,
            };
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

    /// The four plaintext blocks and the IV shared by every NIST
    /// SP 800-38A CFB128 example (F.3.13–F.3.18).
    const SP800_38A_PLAIN: &str = "6bc1bee22e409f96e93d7e117393172a\
                                   ae2d8a571e03ac9c9eb76fac45af8e51\
                                   30c81c46a35ce411e5fbc1191a0a52ef\
                                   f69f2445df4f9b17ad2b417be66c3710";
    const SP800_38A_IV: &str = "000102030405060708090a0b0c0d0e0f";

    /// One key size's encrypt and decrypt examples, all four blocks,
    /// on both AES backends. Encryption runs block by block; the
    /// 64-byte decryption is exactly one 4-block batch.
    fn check_sp800_38a(key_hex: &str, cipher_hex: &str) {
        let key = unhex(key_hex);
        let iv: [u8; 16] = unhex(SP800_38A_IV).try_into().unwrap();
        let plain = unhex(SP800_38A_PLAIN);
        let cipher = unhex(cipher_hex);
        for feat in [CpuFeatures::get(), CpuFeatures::none()] {
            let mut data = plain.clone();
            AesCfb::with_features(&key, &iv, Direction::Encrypt, feat).apply(&mut data);
            assert_eq!(data, cipher, "encrypt, {feat:?}");
            AesCfb::with_features(&key, &iv, Direction::Decrypt, feat).apply(&mut data);
            assert_eq!(data, plain, "decrypt, {feat:?}");
        }
    }

    // NIST SP 800-38A F.3.13 / F.3.14 CFB128-AES128.Encrypt / Decrypt.
    #[test]
    fn sp800_38a_cfb128_aes128() {
        check_sp800_38a(
            "2b7e151628aed2a6abf7158809cf4f3c",
            "3b3fd92eb72dad20333449f8e83cfb4a\
             c8a64537a0b3a93fcde3cdad9f1ce58b\
             26751f67a3cbb140b1808cf187a4f4df\
             c04b05357c5d1c0eeac4c66f9ff7f2e6",
        );
    }

    // NIST SP 800-38A F.3.15 / F.3.16 CFB128-AES192.Encrypt / Decrypt.
    #[test]
    fn sp800_38a_cfb128_aes192() {
        check_sp800_38a(
            "8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b",
            "cdc80d6fddf18cab34c25909c99a4174\
             67ce7f7f81173621961a2b70171d3d7a\
             2e1e8a1dd59b88b1c8e60fed1efac4c9\
             c05f9f9ca9834fa042ae8fba584b09ff",
        );
    }

    // NIST SP 800-38A F.3.17 / F.3.18 CFB128-AES256.Encrypt / Decrypt.
    #[test]
    fn sp800_38a_cfb128_aes256() {
        check_sp800_38a(
            "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4",
            "dc7e84bfda79164b7ecd8486985d3860\
             39ffed143b28b1c832113c6331e5407b\
             df10132415e54b92a13ed0a8267ae2f9\
             75a385741ab9cef82031623d55b1e471",
        );
    }

    #[test]
    fn roundtrip_uneven_chunks() {
        let key = [0x11u8; 32];
        let iv = [0x22u8; 16];
        let plain: Vec<u8> = (0..200u8).collect();
        let mut buf = plain.clone();
        let mut enc = AesCfb::new(&key, &iv, Direction::Encrypt);
        enc.apply(&mut buf[..5]);
        enc.apply(&mut buf[5..21]);
        enc.apply(&mut buf[21..]);
        let mut dec = AesCfb::new(&key, &iv, Direction::Decrypt);
        let mut out = buf.clone();
        dec.apply(&mut out[..33]);
        dec.apply(&mut out[33..]);
        assert_eq!(out, plain);
    }

    #[test]
    fn ciphertext_malleability_garbles_one_block_then_resyncs() {
        // CFB's self-synchronization is the property the paper's
        // byte-change probes (R2–R5) exploit: flipping ciphertext byte i
        // flips plaintext byte i and garbles the following block, after
        // which decryption resynchronizes.
        let key = [7u8; 16];
        let iv = [1u8; 16];
        let plain = vec![0u8; 64];
        let mut ct = plain.clone();
        AesCfb::new(&key, &iv, Direction::Encrypt).apply(&mut ct);
        ct[0] ^= 0x80; // flip one bit in the first ciphertext byte
        let mut pt = ct.clone();
        AesCfb::new(&key, &iv, Direction::Decrypt).apply(&mut pt);
        assert_eq!(pt[0], 0x80, "bit flip maps directly to plaintext");
        assert_ne!(&pt[16..32], &plain[16..32], "next block garbled");
        assert_eq!(&pt[32..], &plain[32..], "stream resynchronizes");
    }
}

//! Wire framing for both Shadowsocks constructions (§2 of the paper).
//!
//! * Stream: `[IV][encrypted bytes...]` — one long ciphertext per
//!   direction.
//! * AEAD: `[salt]` then length-prefixed chunks, each
//!   `[2-byte encrypted length][16-byte length tag][encrypted payload]
//!   [16-byte payload tag]`, with a per-direction HKDF-SHA1 subkey and a
//!   little-endian incrementing 12-byte nonce.

use sscrypto::aead::{Aead, TAG_LEN};
use sscrypto::cfb::Direction;
use sscrypto::hkdf::ss_subkey;
use sscrypto::method::{Kind, Method, StreamCipher, StreamKey};
use sscrypto::AuthError;

/// Maximum plaintext length of one AEAD chunk (0x3FFF per the spec).
pub const MAX_CHUNK: usize = 0x3FFF;

// ---------------------------------------------------------------------
// Stream construction
// ---------------------------------------------------------------------

/// Encrypting half of a stream-cipher session (one direction).
pub struct StreamEncryptor {
    cipher: Box<dyn StreamCipher>,
    iv: Vec<u8>,
    iv_sent: bool,
}

impl StreamEncryptor {
    /// Start a session with the given per-stream IV.
    ///
    /// Prepares the key for this one stream; a config that starts many
    /// streams prepares it once and uses [`StreamEncryptor::with_key`].
    ///
    /// # Panics
    ///
    /// Panics if the method is not a stream method or lengths are wrong.
    pub fn new(method: Method, master_key: &[u8], iv: Vec<u8>) -> StreamEncryptor {
        StreamEncryptor::with_key(&method.stream_key(master_key), iv)
    }

    /// Start a session under an already prepared key.
    ///
    /// # Panics
    ///
    /// Panics if the IV length is wrong for the key's method.
    pub fn with_key(key: &StreamKey, iv: Vec<u8>) -> StreamEncryptor {
        let cipher = key.new_stream(&iv, Direction::Encrypt);
        StreamEncryptor {
            cipher,
            iv,
            iv_sent: false,
        }
    }

    /// Encrypt `plain`, appending to `out` (IV first on the first call).
    /// The ciphertext is produced in place on `out`'s tail: no
    /// intermediate buffer.
    pub fn encrypt_into(&mut self, plain: &[u8], out: &mut Vec<u8>) {
        out.reserve(plain.len() + self.iv.len());
        if !self.iv_sent {
            out.extend_from_slice(&self.iv);
            self.iv_sent = true;
        }
        let start = out.len();
        out.extend_from_slice(plain);
        self.cipher.apply(&mut out[start..]);
    }

    /// Encrypt `plain`, prepending the IV on the first call.
    pub fn encrypt(&mut self, plain: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plain.len() + self.iv.len());
        self.encrypt_into(plain, &mut out);
        out
    }
}

/// Decrypting half of a stream-cipher session (one direction).
///
/// Buffers until the IV is complete, then decrypts incrementally. This
/// mirrors how real servers consume the stream, and it is the state
/// machine whose "waiting for IV" phase produces the TIMEOUT column for
/// short probes in Fig 10a.
pub struct StreamDecryptor {
    key: StreamKey,
    // `Method` dispatch hoisted out of the per-call path: the IV length
    // is resolved once here instead of on every `decrypt`.
    iv_len: usize,
    iv_buf: Vec<u8>,
    cipher: Option<Box<dyn StreamCipher>>,
}

impl StreamDecryptor {
    /// Start a decryption session; the IV arrives with the data.
    ///
    /// Prepares the key for this one stream; a config that starts many
    /// streams prepares it once and uses [`StreamDecryptor::with_key`].
    ///
    /// # Panics
    ///
    /// Panics if the method is not a stream method or the key length is
    /// wrong.
    pub fn new(method: Method, master_key: &[u8]) -> StreamDecryptor {
        StreamDecryptor::with_key(method.stream_key(master_key))
    }

    /// Start a decryption session under an already prepared key.
    pub fn with_key(key: StreamKey) -> StreamDecryptor {
        StreamDecryptor {
            iv_len: key.method().iv_len(),
            key,
            iv_buf: Vec::new(),
            cipher: None,
        }
    }

    /// True once the full IV has been received.
    pub fn iv_complete(&self) -> bool {
        self.cipher.is_some()
    }

    /// The received IV (only meaningful once [`Self::iv_complete`]).
    pub fn iv(&self) -> &[u8] {
        &self.iv_buf
    }

    /// Feed ciphertext, appending any newly decrypted plaintext to
    /// `out`. Decryption happens in place on `out`'s tail: no
    /// intermediate copy of `data`.
    pub fn decrypt_into(&mut self, mut data: &[u8], out: &mut Vec<u8>) {
        if self.cipher.is_none() {
            let need = self.iv_len - self.iv_buf.len();
            let take = need.min(data.len());
            self.iv_buf.extend_from_slice(&data[..take]);
            data = &data[take..];
            if self.iv_buf.len() == self.iv_len {
                self.cipher = Some(self.key.new_stream(&self.iv_buf, Direction::Decrypt));
            }
        }
        if let Some(c) = &mut self.cipher {
            if !data.is_empty() {
                let start = out.len();
                out.extend_from_slice(data);
                c.apply(&mut out[start..]);
            }
        }
    }

    /// Feed ciphertext; returns any newly decrypted plaintext.
    pub fn decrypt(&mut self, data: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.decrypt_into(data, &mut out);
        out
    }
}

// ---------------------------------------------------------------------
// AEAD construction
// ---------------------------------------------------------------------

fn next_nonce(nonce: &mut [u8]) {
    // Little-endian increment, per the Shadowsocks AEAD spec.
    for b in nonce.iter_mut() {
        *b = b.wrapping_add(1);
        if *b != 0 {
            break;
        }
    }
}

/// Encrypting half of an AEAD session (one direction).
pub struct AeadEncryptor {
    aead: Box<dyn Aead>,
    salt: Vec<u8>,
    salt_sent: bool,
    nonce: Vec<u8>,
}

impl AeadEncryptor {
    /// Start a session: derives the subkey from `master_key` and `salt`.
    pub fn new(method: Method, master_key: &[u8], salt: Vec<u8>) -> AeadEncryptor {
        assert_eq!(method.kind(), Kind::Aead);
        assert_eq!(salt.len(), method.iv_len(), "bad salt length");
        let subkey = ss_subkey(master_key, &salt);
        let aead = method.new_aead(&subkey);
        let nonce = vec![0u8; aead.nonce_len()];
        AeadEncryptor {
            aead,
            salt,
            salt_sent: false,
            nonce,
        }
    }

    /// Seal one chunk (`plain.len() <= MAX_CHUNK`) directly onto `out`,
    /// prepending the salt on the first call. Both frames are encrypted
    /// in place on `out`'s tail: no intermediate buffers.
    fn seal_chunk_into(&mut self, plain: &[u8], out: &mut Vec<u8>) {
        assert!(plain.len() <= MAX_CHUNK, "chunk too large");
        out.reserve(self.salt.len() + 2 + TAG_LEN * 2 + plain.len());
        if !self.salt_sent {
            out.extend_from_slice(&self.salt);
            self.salt_sent = true;
        }
        // Length frame.
        let start = out.len();
        out.extend_from_slice(&(plain.len() as u16).to_be_bytes());
        let tag = self.aead.seal(&self.nonce, &[], &mut out[start..]);
        next_nonce(&mut self.nonce);
        out.extend_from_slice(&tag);
        // Payload frame.
        let start = out.len();
        out.extend_from_slice(plain);
        let tag = self.aead.seal(&self.nonce, &[], &mut out[start..]);
        next_nonce(&mut self.nonce);
        out.extend_from_slice(&tag);
    }

    /// Seal arbitrary-length data as a sequence of chunks onto `out`.
    pub fn seal_into(&mut self, plain: &[u8], out: &mut Vec<u8>) {
        for chunk in plain.chunks(MAX_CHUNK) {
            self.seal_chunk_into(chunk, out);
        }
    }

    /// Seal arbitrary-length data as a sequence of chunks.
    pub fn seal(&mut self, plain: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.seal_into(plain, &mut out);
        out
    }
}

/// Where an [`AeadDecryptor`] currently is in the stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AeadPhase {
    /// Waiting for the salt to complete.
    Salt,
    /// Waiting for a `[len][tag]` header.
    Length,
    /// Waiting for `payload + tag` of the given payload length.
    Payload(usize),
}

/// Once the dead prefix of the receive buffer (bytes before `pos`)
/// grows past this, [`AeadDecryptor`] compacts it with one `drain`.
/// Amortizes what used to be an O(buffered) drain per frame.
const COMPACT_THRESHOLD: usize = 4096;

/// Decrypting half of an AEAD session.
///
/// Incoming bytes accumulate in one buffer and frames are decrypted in
/// place there; a cursor tracks the consumed prefix, which is reclaimed
/// lazily (once it passes `COMPACT_THRESHOLD`, 4 KiB) instead of
/// drained per frame.
pub struct AeadDecryptor {
    method: Method,
    // `Method` dispatch hoisted out of the per-call path: the salt
    // length is resolved once here instead of on every `decrypt`.
    salt_len: usize,
    master_key: Vec<u8>,
    aead: Option<Box<dyn Aead>>,
    salt: Vec<u8>,
    nonce: Vec<u8>,
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; bytes before this are dead.
    pos: usize,
    phase: AeadPhase,
}

impl AeadDecryptor {
    /// Start a decryption session; the salt arrives with the data.
    pub fn new(method: Method, master_key: &[u8]) -> AeadDecryptor {
        assert_eq!(method.kind(), Kind::Aead);
        AeadDecryptor {
            method,
            salt_len: method.iv_len(),
            master_key: master_key.to_vec(),
            aead: None,
            salt: Vec::new(),
            nonce: Vec::new(),
            buf: Vec::new(),
            pos: 0,
            phase: AeadPhase::Salt,
        }
    }

    /// True once the full salt has been received.
    pub fn salt_complete(&self) -> bool {
        self.aead.is_some()
    }

    /// The received salt (meaningful once [`Self::salt_complete`]).
    pub fn salt(&self) -> &[u8] {
        &self.salt
    }

    /// Bytes buffered but not yet decryptable.
    pub fn buffered(&self) -> usize {
        (self.buf.len() - self.pos) + self.salt.len()
    }

    /// Current phase.
    pub fn phase(&self) -> AeadPhase {
        self.phase
    }

    /// Absorb the salt prefix (deriving the subkey once complete) and
    /// append the remainder to the receive buffer.
    fn ingest(&mut self, mut data: &[u8]) {
        if self.aead.is_none() {
            let need = self.salt_len - self.salt.len();
            let take = need.min(data.len());
            self.salt.extend_from_slice(&data[..take]);
            data = &data[take..];
            if self.salt.len() == self.salt_len {
                let subkey = ss_subkey(&self.master_key, &self.salt);
                let aead = self.method.new_aead(&subkey);
                self.nonce = vec![0u8; aead.nonce_len()];
                self.aead = Some(aead);
                self.phase = AeadPhase::Length;
            }
        }
        self.buf.extend_from_slice(data);
    }

    /// Decrypt the next complete payload frame in place inside `buf`,
    /// advancing the cursor past it. Returns the plaintext's range
    /// within `buf`, or `None` if more data is needed.
    fn next_frame(&mut self) -> Result<Option<std::ops::Range<usize>>, AuthError> {
        let Some(aead) = &self.aead else {
            return Ok(None);
        };
        loop {
            let avail = self.buf.len() - self.pos;
            match self.phase {
                // `ingest` leaves this phase when it derives the subkey,
                // so no frame is readable here yet.
                AeadPhase::Salt => return Ok(None),
                AeadPhase::Length => {
                    if avail < 2 + TAG_LEN {
                        return Ok(None);
                    }
                    // Offset sums below cannot wrap: `self.pos + k` is
                    // bounds-checked by the slice indexing itself (and
                    // `avail >= 2 + TAG_LEN` was just established).
                    // gfwlint: allow(W1) -- bounds-checked by the index
                    let mut len_bytes = [self.buf[self.pos], self.buf[self.pos + 1]];
                    let mut tag = [0u8; TAG_LEN];
                    // gfwlint: allow(W1) -- bounds-checked by the index
                    tag.copy_from_slice(&self.buf[self.pos + 2..self.pos + 2 + TAG_LEN]);
                    aead.open(&self.nonce, &[], &mut len_bytes, &tag)?;
                    next_nonce(&mut self.nonce);
                    self.pos = self.pos.wrapping_add(2 + TAG_LEN);
                    let len = u16::from_be_bytes(len_bytes) as usize & MAX_CHUNK;
                    self.phase = AeadPhase::Payload(len);
                }
                AeadPhase::Payload(len) => {
                    if avail < len + TAG_LEN {
                        return Ok(None);
                    }
                    let mut tag = [0u8; TAG_LEN];
                    // gfwlint: allow(W1) -- bounds-checked by the index
                    tag.copy_from_slice(&self.buf[self.pos + len..self.pos + len + TAG_LEN]);
                    let body = &mut self.buf[self.pos..self.pos + len];
                    aead.open(&self.nonce, &[], body, &tag)?;
                    next_nonce(&mut self.nonce);
                    let start = self.pos;
                    self.pos = self.pos.wrapping_add(len + TAG_LEN);
                    self.phase = AeadPhase::Length;
                    return Ok(Some(start..start + len));
                }
            }
        }
    }

    /// Reclaim the consumed prefix of `buf` when it is free (everything
    /// consumed) or large enough to amortize the move.
    fn compact(&mut self) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos >= COMPACT_THRESHOLD {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }

    /// Feed ciphertext, appending decrypted payload bytes to `out`
    /// (chunk boundaries are not preserved). On the first
    /// authentication error `out` is restored to its previous length
    /// and the session is poisoned.
    pub fn decrypt_into(&mut self, data: &[u8], out: &mut Vec<u8>) -> Result<(), AuthError> {
        self.ingest(data);
        let mark = out.len();
        let res = loop {
            match self.next_frame() {
                Ok(Some(r)) => out.extend_from_slice(&self.buf[r]),
                Ok(None) => break Ok(()),
                Err(e) => {
                    out.truncate(mark);
                    break Err(e);
                }
            }
        };
        self.compact();
        res
    }

    /// Feed ciphertext. Returns complete decrypted chunks, or the first
    /// authentication error (at which point the session is poisoned).
    pub fn decrypt(&mut self, data: &[u8]) -> Result<Vec<Vec<u8>>, AuthError> {
        self.ingest(data);
        let mut out = Vec::new();
        let res = loop {
            match self.next_frame() {
                Ok(Some(r)) => out.push(self.buf[r].to_vec()),
                Ok(None) => break Ok(out),
                Err(e) => break Err(e),
            }
        };
        self.compact();
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sscrypto::method::ALL_METHODS;

    fn key_for(m: Method) -> Vec<u8> {
        sscrypto::kdf::evp_bytes_to_key(b"test-password", m.key_len())
    }

    #[test]
    fn stream_roundtrip_all_methods() {
        for &m in ALL_METHODS.iter().filter(|m| m.kind() == Kind::Stream) {
            let key = key_for(m);
            let iv = vec![0x5au8; m.iv_len()];
            let mut enc = StreamEncryptor::new(m, &key, iv);
            let mut dec = StreamDecryptor::new(m, &key);
            let a = enc.encrypt(b"hello ");
            let b = enc.encrypt(b"world");
            assert_eq!(a.len(), m.iv_len() + 6, "{}", m.name());
            let mut plain = dec.decrypt(&a);
            plain.extend(dec.decrypt(&b));
            assert_eq!(plain, b"hello world", "{}", m.name());
        }
    }

    #[test]
    fn stream_decryptor_handles_split_iv() {
        let m = Method::Aes256Cfb;
        let key = key_for(m);
        let mut enc = StreamEncryptor::new(m, &key, vec![9u8; 16]);
        let ct = enc.encrypt(b"payload after split iv");
        let mut dec = StreamDecryptor::new(m, &key);
        let mut plain = Vec::new();
        // Feed one byte at a time across the IV boundary.
        for b in &ct {
            plain.extend(dec.decrypt(std::slice::from_ref(b)));
        }
        assert_eq!(plain, b"payload after split iv");
    }

    #[test]
    fn aead_roundtrip_all_methods() {
        for &m in ALL_METHODS.iter().filter(|m| m.kind() == Kind::Aead) {
            let key = key_for(m);
            let salt = vec![0x21u8; m.iv_len()];
            let mut enc = AeadEncryptor::new(m, &key, salt);
            let mut dec = AeadDecryptor::new(m, &key);
            let ct = enc.seal(b"GET / HTTP/1.1\r\nHost: example.com\r\n\r\n");
            let chunks = dec.decrypt(&ct).unwrap();
            let plain: Vec<u8> = chunks.concat();
            assert_eq!(
                plain,
                b"GET / HTTP/1.1\r\nHost: example.com\r\n\r\n".to_vec()
            );
        }
    }

    #[test]
    fn aead_frame_overhead_matches_spec() {
        // First frame: salt + 2 + 16 + payload + 16 (§2 of the paper).
        let m = Method::ChaCha20IetfPoly1305;
        let key = key_for(m);
        let mut enc = AeadEncryptor::new(m, &key, vec![1u8; 32]);
        let ct = enc.seal(b"abc");
        assert_eq!(ct.len(), 32 + 2 + 16 + 3 + 16);
        // Second frame has no salt.
        let ct2 = enc.seal(b"defg");
        assert_eq!(ct2.len(), 2 + 16 + 4 + 16);
    }

    #[test]
    fn aead_decryptor_streams_byte_by_byte() {
        let m = Method::Aes128Gcm;
        let key = key_for(m);
        let mut enc = AeadEncryptor::new(m, &key, vec![7u8; 16]);
        let ct = enc.seal(b"chunked delivery");
        let mut dec = AeadDecryptor::new(m, &key);
        let mut plain = Vec::new();
        for b in &ct {
            for chunk in dec.decrypt(std::slice::from_ref(b)).unwrap() {
                plain.extend(chunk);
            }
        }
        assert_eq!(plain, b"chunked delivery");
    }

    #[test]
    fn aead_random_junk_fails_auth() {
        let m = Method::Aes256Gcm;
        let key = key_for(m);
        let mut dec = AeadDecryptor::new(m, &key);
        // 32-byte salt + 34 bytes of junk ≥ the length-chunk threshold.
        let junk = vec![0xEEu8; 66];
        assert!(dec.decrypt(&junk).is_err());
    }

    #[test]
    fn aead_tampered_length_fails() {
        let m = Method::Aes128Gcm;
        let key = key_for(m);
        let mut enc = AeadEncryptor::new(m, &key, vec![7u8; 16]);
        let mut ct = enc.seal(b"x");
        ct[16] ^= 1; // flip a bit in the encrypted length
        let mut dec = AeadDecryptor::new(m, &key);
        assert!(dec.decrypt(&ct).is_err());
    }

    #[test]
    fn aead_wrong_salt_wrong_subkey() {
        let m = Method::Aes128Gcm;
        let key = key_for(m);
        let mut enc = AeadEncryptor::new(m, &key, vec![7u8; 16]);
        let mut ct = enc.seal(b"x");
        ct[0] ^= 1; // flip a bit in the salt — the GFW's type R2 probe
        let mut dec = AeadDecryptor::new(m, &key);
        assert!(dec.decrypt(&ct).is_err());
    }

    #[test]
    fn multi_chunk_large_payload() {
        let m = Method::ChaCha20IetfPoly1305;
        let key = key_for(m);
        let mut enc = AeadEncryptor::new(m, &key, vec![3u8; 32]);
        let big: Vec<u8> = (0..100_000u32).map(|i| i as u8).collect();
        let ct = enc.seal(&big);
        let mut dec = AeadDecryptor::new(m, &key);
        let plain: Vec<u8> = dec.decrypt(&ct).unwrap().concat();
        assert_eq!(plain, big);
    }
}

//! Property tests for the Shadowsocks wire codecs (§2 of the paper).
//!
//! TCP gives the receiver no say in segment boundaries, so both
//! constructions must decode identically however the ciphertext is
//! sliced: feeding a stream or AEAD decryptor arbitrary splits of the
//! same bytes must reproduce the plaintext exactly. And AEAD must stay
//! an authenticated channel: any single-bit tamper anywhere past the
//! salt is rejected, never silently decoded.
//!
//! A stream config prepares its key once and every session shares it
//! (for AES, one expanded key schedule). Sharing must be invisible:
//! interleaved sessions on the shared key produce exactly the bytes of
//! sessions that each prepare the key afresh.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shadowsocks::config::PreparedKey;
use shadowsocks::wire::{AeadDecryptor, AeadEncryptor, StreamDecryptor, StreamEncryptor};
use shadowsocks::{Profile, ServerConfig};
use sscrypto::method::{Kind, Method, ALL_METHODS};

fn key_for(m: Method) -> Vec<u8> {
    sscrypto::kdf::evp_bytes_to_key(b"prop-password", m.key_len())
}

/// Pick a method of the given kind from a full-range index.
fn pick(kind: Kind, idx: usize) -> Method {
    let of_kind: Vec<Method> = ALL_METHODS
        .iter()
        .copied()
        .filter(|m| m.kind() == kind)
        .collect();
    of_kind[idx % of_kind.len()]
}

/// Split `data` into segments at the given cut fractions.
fn segments(data: &[u8], cuts: &[f64]) -> Vec<Vec<u8>> {
    let mut points: Vec<usize> = cuts
        .iter()
        .map(|f| ((data.len() as f64) * f) as usize)
        .collect();
    points.sort_unstable();
    points.dedup();
    let mut out = Vec::new();
    let mut prev = 0;
    for p in points {
        if p > prev && p < data.len() {
            out.push(data[prev..p].to_vec());
            prev = p;
        }
    }
    out.push(data[prev..].to_vec());
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Stream construction: plaintext round-trips under arbitrary
    /// encrypt-call and decrypt-segment boundaries, IV split included.
    #[test]
    fn stream_roundtrip_any_segmentation(
        midx in 0usize..8,
        plain in proptest::collection::vec(any::<u8>(), 1..3000),
        enc_cuts in proptest::collection::vec(0.0f64..1.0, 0..4),
        dec_cuts in proptest::collection::vec(0.0f64..1.0, 0..8),
        iv_seed in any::<u64>(),
    ) {
        let m = pick(Kind::Stream, midx);
        let key = key_for(m);
        let mut iv = vec![0u8; m.iv_len()];
        StdRng::seed_from_u64(iv_seed).fill(&mut iv[..]);

        let mut enc = StreamEncryptor::new(m, &key, iv);
        let mut ct = Vec::new();
        for part in segments(&plain, &enc_cuts) {
            ct.extend(enc.encrypt(&part));
        }

        let mut dec = StreamDecryptor::new(m, &key);
        let mut got = Vec::new();
        for seg in segments(&ct, &dec_cuts) {
            got.extend(dec.decrypt(&seg));
        }
        prop_assert!(dec.iv_complete());
        prop_assert_eq!(&got, &plain, "{}", m.name());
    }

    /// AEAD construction: chunked plaintext round-trips under arbitrary
    /// receive-segment boundaries (salt, length and payload frames all
    /// split at random points).
    #[test]
    fn aead_roundtrip_any_segmentation(
        midx in 0usize..8,
        plain in proptest::collection::vec(any::<u8>(), 1..3000),
        enc_cuts in proptest::collection::vec(0.0f64..1.0, 0..4),
        dec_cuts in proptest::collection::vec(0.0f64..1.0, 0..8),
        salt_seed in any::<u64>(),
    ) {
        let m = pick(Kind::Aead, midx);
        let key = key_for(m);
        let mut salt = vec![0u8; m.iv_len()];
        StdRng::seed_from_u64(salt_seed).fill(&mut salt[..]);

        let mut enc = AeadEncryptor::new(m, &key, salt);
        let mut ct = Vec::new();
        for part in segments(&plain, &enc_cuts) {
            ct.extend(enc.seal(&part));
        }

        let mut dec = AeadDecryptor::new(m, &key);
        let mut got = Vec::new();
        for seg in segments(&ct, &dec_cuts) {
            let chunks = match dec.decrypt(&seg) {
                Ok(c) => c,
                Err(e) => return Err(TestCaseError::fail(format!(
                    "{}: spurious auth failure: {e:?}", m.name()
                ))),
            };
            for c in chunks {
                got.extend(c);
            }
        }
        prop_assert!(dec.salt_complete());
        prop_assert_eq!(&got, &plain, "{}", m.name());
    }

    /// Zero-copy API equivalence: `encrypt_into`/`seal_into` appending
    /// to one reused scratch buffer produce exactly the bytes the
    /// Vec-returning APIs produce, call for call, under arbitrary
    /// plaintext segmentation.
    #[test]
    fn seal_into_matches_vec_api(
        smidx in 0usize..8,
        amidx in 0usize..8,
        plain in proptest::collection::vec(any::<u8>(), 1..3000),
        cuts in proptest::collection::vec(0.0f64..1.0, 0..6),
    ) {
        // Stream construction.
        let m = pick(Kind::Stream, smidx);
        let key = key_for(m);
        let iv = vec![0x5eu8; m.iv_len()];
        let mut old = StreamEncryptor::new(m, &key, iv.clone());
        let mut new = StreamEncryptor::new(m, &key, iv);
        let mut old_ct = Vec::new();
        let mut new_ct = Vec::new();
        for part in segments(&plain, &cuts) {
            old_ct.extend(old.encrypt(&part));
            new.encrypt_into(&part, &mut new_ct);
        }
        prop_assert_eq!(&old_ct, &new_ct, "{}", m.name());

        // AEAD construction.
        let m = pick(Kind::Aead, amidx);
        let key = key_for(m);
        let salt = vec![0x6fu8; m.iv_len()];
        let mut old = AeadEncryptor::new(m, &key, salt.clone());
        let mut new = AeadEncryptor::new(m, &key, salt);
        let mut old_ct = Vec::new();
        let mut new_ct = Vec::new();
        for part in segments(&plain, &cuts) {
            old_ct.extend(old.seal(&part));
            new.seal_into(&part, &mut new_ct);
        }
        prop_assert_eq!(&old_ct, &new_ct, "{}", m.name());
    }

    /// Zero-copy API equivalence on the receive side: for any
    /// segmentation of the ciphertext, `decrypt_into` appends exactly
    /// the concatenation of the chunks the Vec-returning `decrypt`
    /// yields, and both agree on every auth verdict.
    #[test]
    fn decrypt_into_matches_vec_api(
        midx in 0usize..8,
        plain in proptest::collection::vec(any::<u8>(), 1..3000),
        dec_cuts in proptest::collection::vec(0.0f64..1.0, 0..8),
        tamper_sel in 0u8..4,
        tamper_pos in 0.0f64..1.0,
        tamper_bit in 0u8..8,
    ) {
        let m = pick(Kind::Aead, midx);
        let key = key_for(m);
        let mut enc = AeadEncryptor::new(m, &key, vec![0x51u8; m.iv_len()]);
        let mut ct = enc.seal(&plain);
        // A quarter of the cases tamper with the ciphertext so the two
        // APIs are also compared on the auth-failure path.
        if tamper_sel == 0 {
            let pos = ((ct.len() as f64) * tamper_pos) as usize % ct.len();
            ct[pos] ^= 1 << tamper_bit;
        }

        let mut old = AeadDecryptor::new(m, &key);
        let mut new = AeadDecryptor::new(m, &key);
        let mut old_plain = Vec::new();
        let mut new_plain = Vec::new();
        for seg in segments(&ct, &dec_cuts) {
            let old_res = old.decrypt(&seg);
            let new_res = new.decrypt_into(&seg, &mut new_plain);
            prop_assert_eq!(
                old_res.is_err(),
                new_res.is_err(),
                "{}: auth verdicts diverge",
                m.name()
            );
            if let Ok(chunks) = old_res {
                for c in chunks {
                    old_plain.extend(c);
                }
            }
            prop_assert_eq!(old.buffered(), new.buffered(), "{}", m.name());
            prop_assert_eq!(old.phase(), new.phase(), "{}", m.name());
        }
        prop_assert_eq!(&old_plain, &new_plain, "{}", m.name());
    }

    /// AEAD reject-on-tamper: flipping any single bit after the salt
    /// poisons the session — decryption reports an auth error instead
    /// of yielding plaintext, however the tampered bytes are segmented.
    /// (Salt bytes are excluded: the salt is not authenticated itself,
    /// it keys the subkey, so a salt flip surfaces as a tag failure on
    /// the first frame — covered by flipping byte `salt_len` onwards
    /// having the same observable outcome as flipping inside the salt,
    /// which the unit tests pin separately.)
    #[test]
    fn aead_rejects_any_bit_flip(
        midx in 0usize..8,
        plain in proptest::collection::vec(any::<u8>(), 1..800),
        flip_pos in 0.0f64..1.0,
        flip_bit in 0u8..8,
        dec_cuts in proptest::collection::vec(0.0f64..1.0, 0..6),
    ) {
        let m = pick(Kind::Aead, midx);
        let key = key_for(m);
        let mut enc = AeadEncryptor::new(m, &key, vec![0x42u8; m.iv_len()]);
        let mut ct = enc.seal(&plain);

        // Flip one bit anywhere in the ciphertext, salt included — a
        // salt flip derives the wrong subkey, so the first tag check
        // must still fail.
        let pos = ((ct.len() as f64) * flip_pos) as usize % ct.len();
        ct[pos] ^= 1 << flip_bit;

        let mut dec = AeadDecryptor::new(m, &key);
        let mut failed = false;
        for seg in segments(&ct, &dec_cuts) {
            if dec.decrypt(&seg).is_err() {
                failed = true;
                break;
            }
        }
        prop_assert!(
            failed,
            "{}: bit {} of byte {} flipped undetected",
            m.name(), flip_bit, pos
        );
    }
}

/// One proxied connection's four stream halves: client → server and
/// server → client.
struct Session {
    client_enc: StreamEncryptor,
    server_dec: StreamDecryptor,
    server_enc: StreamEncryptor,
    client_dec: StreamDecryptor,
}

impl Session {
    /// Run one exchange: the client sends `request`, the server
    /// decrypts it and replies with `reply`, the client decrypts that.
    /// Returns every wire and plaintext byte string in order.
    fn exchange(&mut self, request: &[u8], reply: &[u8]) -> [Vec<u8>; 4] {
        let up = self.client_enc.encrypt(request);
        let got_request = self.server_dec.decrypt(&up);
        let down = self.server_enc.encrypt(reply);
        let got_reply = self.client_dec.decrypt(&down);
        [up, got_request, down, got_reply]
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every stream method: sessions that share one config's prepared
    /// key, interleaved in arbitrary order, send, decrypt and reply
    /// exactly as sessions whose keys are prepared afresh from the
    /// master key.
    #[test]
    fn shared_key_sessions_match_fresh_keys(
        sessions in 1usize..6,
        order in proptest::collection::vec(any::<usize>(), 1..16),
        requests in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..300),
            16..17,
        ),
        replies in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..300),
            16..17,
        ),
        iv_seed in any::<u64>(),
    ) {
        let stream_methods = ALL_METHODS.iter().filter(|m| m.kind() == Kind::Stream);
        for &m in stream_methods {
            let config = ServerConfig::new(m, "prop-password", Profile::LIBEV_OLD);
            let PreparedKey::Stream(key) = config.key() else {
                return Err(TestCaseError::fail(format!("{}: no stream key", m.name())));
            };
            let mut rng = StdRng::seed_from_u64(iv_seed);
            let mut shared = Vec::new();
            let mut fresh = Vec::new();
            for _ in 0..sessions {
                let mut client_iv = vec![0u8; m.iv_len()];
                rng.fill(&mut client_iv[..]);
                let mut server_iv = vec![0u8; m.iv_len()];
                rng.fill(&mut server_iv[..]);
                shared.push(Session {
                    client_enc: StreamEncryptor::with_key(key, client_iv.clone()),
                    server_dec: StreamDecryptor::with_key(key.clone()),
                    server_enc: StreamEncryptor::with_key(key, server_iv.clone()),
                    client_dec: StreamDecryptor::with_key(key.clone()),
                });
                let master = &config.master_key;
                fresh.push(Session {
                    client_enc: StreamEncryptor::new(m, master, client_iv),
                    server_dec: StreamDecryptor::new(m, master),
                    server_enc: StreamEncryptor::new(m, master, server_iv),
                    client_dec: StreamDecryptor::new(m, master),
                });
            }
            // Exchange `k` runs on session `order[k]`, so sessions
            // interleave on the shared key in arbitrary order.
            for ((who, request), reply) in order.iter().zip(&requests).zip(&replies) {
                let i = who % sessions;
                let got = shared[i].exchange(request, reply);
                prop_assert_eq!(&got, &fresh[i].exchange(request, reply), "{}", m.name());
                prop_assert_eq!(&got[1], request, "{}", m.name());
                prop_assert_eq!(&got[3], reply, "{}", m.name());
            }
        }
    }
}

//! Pure payload generators: entropy-controlled random data (Table 4)
//! and structured protocol first-packets.
//!
//! The structured builders (`tls_client_hello_realistic`, `ssh_banner`,
//! `dns_tcp_query`, …) produce wire-accurate byte layouts — correct
//! record framing, extension lists with realistic lengths, length
//! prefixes — because the passive detector's exemption rules key on
//! exact prefixes and the base-rate experiments need the surrounding
//! bytes to carry protocol-typical entropy, not uniform noise.

use rand::Rng;
use std::io::Write;

/// TLS protocol generation for the hello builders.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TlsVersion {
    /// TLS 1.2: classic ClientHello, no key_share, natural length.
    V1_2,
    /// TLS 1.3: supported_versions + key_share, padded to 517 bytes
    /// the way Chrome-lineage stacks do.
    V1_3,
}

/// `x % k` for a fixed `k ≥ 1` and any `u64` `x`, without a division.
///
/// With `m = ⌊(2⁶⁴ − 1) / k⌋`, the high word `q` of `x·m` is `⌊x / k⌋`
/// or one less, so `x − q·k` lies in `[0, 2k)` and one conditional
/// subtraction finishes it. That holds for every `x` and `k`, `k = 1`
/// included, so the result equals `x % k` exactly: a draw through it
/// consumes and yields what `gen_range(0..k)` would.
#[derive(Clone, Copy)]
struct ModK {
    k: u64,
    m: u64,
}

impl ModK {
    fn new(k: usize) -> ModK {
        let k = k as u64;
        ModK { k, m: u64::MAX / k }
    }

    #[inline]
    fn reduce(self, x: u64) -> usize {
        let q = (u128::from(x).wrapping_mul(u128::from(self.m)) >> 64) as u64;
        let r = x.wrapping_sub(q.wrapping_mul(self.k));
        (if r >= self.k { r - self.k } else { r }) as usize
    }
}

/// Generate `len` bytes with per-byte Shannon entropy close to
/// `target_bits` (0.0–8.0).
///
/// Implementation: bytes are drawn uniformly from an alphabet of
/// `k = 2^target_bits` distinct random values, giving entropy
/// `log2(k)` for long payloads. Fractional targets interpolate by
/// mixing two alphabet sizes. Short payloads are capped at
/// `log2(len)` bits by counting alone — the same physical limit real
/// probes face.
///
/// Each byte is one RNG word reduced modulo `k`, exactly as
/// `gen_range(0..k)` draws it, but through a multiply instead of the
/// `u128` division `gen_range` takes (see `ModK`).
pub fn entropy_payload(len: usize, target_bits: f64, rng: &mut impl Rng) -> Vec<u8> {
    let target = target_bits.clamp(0.0, 8.0);
    if len == 0 {
        return Vec::new();
    }
    if target <= 0.0 {
        return vec![rng.gen(); len];
    }
    // Alphabet of k distinct byte values.
    let k_real = 2f64.powf(target);
    let k = (k_real.round() as usize).clamp(1, 256);
    let mut alphabet: Vec<u8> = (0..=255u8).collect();
    // Fisher–Yates prefix shuffle for the first k entries.
    for i in 0..k.min(255) {
        let j = rng.gen_range(i..256);
        alphabet.swap(i, j);
    }
    let draw = ModK::new(k);
    (0..len)
        .map(|_| alphabet[draw.reduce(rng.next_u64())])
        .collect()
}

/// The number of digits `{x:x}` prints.
fn hex_len(x: u32) -> usize {
    (8 - x.leading_zeros() as usize / 4).max(1)
}

/// A plausible HTTP/1.1 GET request of roughly `len` bytes (padded with
/// header filler). Always starts with `GET ` so protocol whitelists
/// recognize it. Built into one buffer of its final length.
pub fn http_request(host: &str, len: usize, rng: &mut impl Rng) -> Vec<u8> {
    const TAIL: &[u8] = b"\r\nUser-Agent: curl/7.68.0\r\nAccept: */*\r\n";
    let path_entropy: u32 = rng.gen();
    let head =
        "GET /page/ HTTP/1.1\r\nHost: ".len() + hex_len(path_entropy) + host.len() + TAIL.len();
    // Pad with a filler header when the target length leaves room for
    // one ("X-Pad: " + at least one byte + CRLF + final CRLF).
    let pad = len.saturating_sub(head + 2 + 9);
    let total = head + if pad >= 1 { 9 + pad } else { 0 } + 2;
    let mut req = Vec::with_capacity(total);
    // Writing into a `Vec` cannot fail.
    let _ = write!(req, "GET /page/{path_entropy:x} HTTP/1.1\r\nHost: {host}");
    req.extend_from_slice(TAIL);
    if pad >= 1 {
        req.extend_from_slice(b"X-Pad: ");
        req.resize(req.len() + pad, b'a');
        req.extend_from_slice(b"\r\n");
    }
    req.extend_from_slice(b"\r\n");
    debug_assert_eq!(req.len(), total);
    req
}

/// A TLS 1.2-style ClientHello record of roughly `len` bytes: correct
/// record header (0x16 0x03 0x01), random body. The realistic mix of a
/// plaintext header and high-entropy key material.
pub fn tls_client_hello(len: usize, rng: &mut impl Rng) -> Vec<u8> {
    let len = len.max(6);
    let body_len = len - 5;
    let mut rec = Vec::with_capacity(len);
    rec.push(0x16);
    rec.push(0x03);
    rec.push(0x01);
    rec.extend_from_slice(&(body_len as u16).to_be_bytes());
    // Handshake header + random.
    rec.push(0x01); // ClientHello
    let mut body = vec![0u8; body_len - 1];
    rng.fill(&mut body[..]);
    rec.extend_from_slice(&body);
    rec
}

/// Append one TLS extension (`id`, length-prefixed `body`) to `out`.
fn put_ext(out: &mut Vec<u8>, id: u16, body: &[u8]) {
    out.extend_from_slice(&id.to_be_bytes());
    out.extend_from_slice(&(body.len() as u16).to_be_bytes());
    out.extend_from_slice(body);
}

/// A wire-accurate ClientHello: correct record + handshake framing,
/// 32-byte random, 32-byte legacy session id, a realistic cipher-suite
/// list, and an extension block (SNI for `sni`, supported_groups,
/// signature_algorithms, ALPN, session_ticket; plus supported_versions,
/// psk_key_exchange_modes and an x25519 key_share under
/// [`TlsVersion::V1_3`]).
///
/// `pad_to` (total record length, bytes) appends a zero-filled padding
/// extension — the RFC 7685 mechanism Chrome uses to pin ClientHellos
/// at 517 bytes. `None` leaves the natural length (TLS 1.2 style).
pub fn tls_client_hello_realistic(
    sni: &str,
    version: TlsVersion,
    pad_to: Option<usize>,
    rng: &mut impl Rng,
) -> Vec<u8> {
    let mut hs = Vec::with_capacity(512);
    hs.extend_from_slice(&[0x03, 0x03]); // legacy_version
    let mut random = [0u8; 32];
    rng.fill(&mut random[..]);
    hs.extend_from_slice(&random);
    hs.push(32); // legacy_session_id
    let mut session = [0u8; 32];
    rng.fill(&mut session[..]);
    hs.extend_from_slice(&session);
    let suites: &[u16] = match version {
        TlsVersion::V1_3 => &[
            0x1301, 0x1302, 0x1303, 0xc02b, 0xc02f, 0xc02c, 0xc030, 0xcca9, 0xcca8, 0x009c, 0x009d,
            0x002f, 0x0035,
        ],
        TlsVersion::V1_2 => &[
            0xc02b, 0xc02f, 0xc02c, 0xc030, 0xcca9, 0xcca8, 0xc013, 0xc014, 0x009c, 0x009d, 0x002f,
            0x0035, 0x000a,
        ],
    };
    hs.extend_from_slice(&((suites.len() * 2) as u16).to_be_bytes());
    for s in suites {
        hs.extend_from_slice(&s.to_be_bytes());
    }
    hs.extend_from_slice(&[0x01, 0x00]); // null compression only

    let mut exts = Vec::with_capacity(256);
    // server_name
    let name = sni.as_bytes();
    let mut sni_body = Vec::with_capacity(name.len() + 5);
    sni_body.extend_from_slice(&((name.len() + 3) as u16).to_be_bytes());
    sni_body.push(0); // host_name
    sni_body.extend_from_slice(&(name.len() as u16).to_be_bytes());
    sni_body.extend_from_slice(name);
    put_ext(&mut exts, 0x0000, &sni_body);
    // supported_groups: x25519, secp256r1, secp384r1
    put_ext(
        &mut exts,
        0x000a,
        &[0x00, 0x06, 0x00, 0x1d, 0x00, 0x17, 0x00, 0x18],
    );
    // ec_point_formats: uncompressed
    put_ext(&mut exts, 0x000b, &[0x01, 0x00]);
    // signature_algorithms
    put_ext(
        &mut exts,
        0x000d,
        &[
            0x00, 0x10, 0x04, 0x03, 0x08, 0x04, 0x04, 0x01, 0x05, 0x03, 0x08, 0x05, 0x05, 0x01,
            0x08, 0x06, 0x06, 0x01,
        ],
    );
    // ALPN: h2, http/1.1
    put_ext(&mut exts, 0x0010, b"\x00\x0c\x02h2\x08http/1.1");
    // session_ticket (empty)
    put_ext(&mut exts, 0x0023, &[]);
    if version == TlsVersion::V1_3 {
        // supported_versions: 1.3, 1.2
        put_ext(&mut exts, 0x002b, &[0x04, 0x03, 0x04, 0x03, 0x03]);
        // psk_key_exchange_modes: psk_dhe_ke
        put_ext(&mut exts, 0x002d, &[0x01, 0x01]);
        // key_share: one x25519 share
        let mut share = [0u8; 32];
        rng.fill(&mut share[..]);
        let mut ks = Vec::with_capacity(38);
        ks.extend_from_slice(&[0x00, 0x24, 0x00, 0x1d, 0x00, 0x20]);
        ks.extend_from_slice(&share);
        put_ext(&mut exts, 0x0033, &ks);
    }
    if let Some(total) = pad_to {
        // record(5) + handshake hdr(4) + body + ext-block len(2) + a
        // 4-byte padding-extension header.
        let sans_padding = 5 + 4 + hs.len() + 2 + exts.len();
        let pad = total.saturating_sub(sans_padding + 4);
        put_ext(&mut exts, 0x0015, &vec![0u8; pad]);
    }
    hs.extend_from_slice(&(exts.len() as u16).to_be_bytes());
    hs.extend_from_slice(&exts);

    let mut rec = Vec::with_capacity(hs.len() + 9);
    rec.extend_from_slice(&[0x16, 0x03, 0x01]);
    rec.extend_from_slice(&((hs.len() + 4) as u16).to_be_bytes());
    rec.push(0x01); // ClientHello
    let hl = hs.len() as u32;
    rec.extend_from_slice(&hl.to_be_bytes()[1..]); // 24-bit length
    rec.extend_from_slice(&hs);
    rec
}

/// Append `n` random bytes to `out`, as `rng.fill` draws them.
fn put_random(out: &mut Vec<u8>, n: usize, rng: &mut impl Rng) {
    let start = out.len();
    out.resize(start + n, 0);
    rng.fill(&mut out[start..]);
}

/// Draw the body length of a [`tls_server_flight`]'s second record:
/// the one draw that fixes the flight's length.
pub fn tls_flight_body_len(version: TlsVersion, rng: &mut impl Rng) -> usize {
    match version {
        TlsVersion::V1_2 => rng.gen_range(900..=2400), // Certificate…
        TlsVersion::V1_3 => rng.gen_range(700..=2000), // encrypted hs
    }
}

/// The handshake body length of a [`tls_server_flight`]'s ServerHello:
/// version, random, session id, suite and compression (72 bytes), then
/// the extension block: supported_versions (6) and an x25519 key_share
/// (40) under TLS 1.3, nothing under TLS 1.2.
fn server_hello_body_len(version: TlsVersion) -> usize {
    match version {
        TlsVersion::V1_3 => 72 + 6 + 40,
        TlsVersion::V1_2 => 72,
    }
}

/// The length of `tls_server_flight(version, body_len, _)`: both record
/// headers, the handshake header and both bodies.
pub fn tls_server_flight_len(version: TlsVersion, body_len: usize) -> usize {
    5 + 4 + server_hello_body_len(version) + 5 + body_len
}

/// A ServerHello-led response flight: record 1 is a wire-accurate
/// ServerHello (echoing no session, picking a suite matching
/// `version`); record 2 models the rest of the server's first flight —
/// a Certificate chain under TLS 1.2, encrypted handshake records under
/// TLS 1.3 — as a high-entropy record of `body_len` bytes (drawn by
/// [`tls_flight_body_len`]).
pub fn tls_server_flight(version: TlsVersion, body_len: usize, rng: &mut impl Rng) -> Vec<u8> {
    let mut out = Vec::with_capacity(tls_server_flight_len(version, body_len));
    let hs_len = server_hello_body_len(version);
    out.extend_from_slice(&[0x16, 0x03, 0x03]);
    out.extend_from_slice(&((hs_len + 4) as u16).to_be_bytes());
    out.push(0x02); // ServerHello
    out.extend_from_slice(&(hs_len as u32).to_be_bytes()[1..]);
    out.extend_from_slice(&[0x03, 0x03]);
    put_random(&mut out, 32, rng); // random
    out.push(32);
    put_random(&mut out, 32, rng); // session id
    let suite: u16 = match version {
        TlsVersion::V1_3 => 0x1301,
        TlsVersion::V1_2 => 0xc02f,
    };
    out.extend_from_slice(&suite.to_be_bytes());
    out.push(0x00); // compression
    out.extend_from_slice(&((hs_len - 72) as u16).to_be_bytes());
    if version == TlsVersion::V1_3 {
        put_ext(&mut out, 0x002b, &[0x03, 0x04]);
        // key_share: one x25519 share.
        out.extend_from_slice(&[0x00, 0x33, 0x00, 0x24, 0x00, 0x1d, 0x00, 0x20]);
        put_random(&mut out, 32, rng);
    }

    // Rest of the flight.
    let kind = match version {
        TlsVersion::V1_2 => 0x16u8,
        TlsVersion::V1_3 => 0x17,
    };
    out.extend_from_slice(&[kind, 0x03, 0x03]);
    out.extend_from_slice(&(body_len as u16).to_be_bytes());
    put_random(&mut out, body_len, rng);
    debug_assert_eq!(out.len(), tls_server_flight_len(version, body_len));
    out
}

/// SSH identification strings seen in the wild; the generation pool for
/// [`ssh_banner`].
pub const SSH_BANNERS: &[&str] = &[
    "SSH-2.0-OpenSSH_7.4",
    "SSH-2.0-OpenSSH_8.2p1 Ubuntu-4ubuntu0.11",
    "SSH-2.0-OpenSSH_8.9p1 Ubuntu-3ubuntu0.10",
    "SSH-2.0-OpenSSH_9.6",
    "SSH-2.0-dropbear_2022.83",
    "SSH-2.0-libssh_0.10.5",
];

/// An SSH identification line (RFC 4253 §4.2): `SSH-2.0-…\r\n`, drawn
/// from [`SSH_BANNERS`].
pub fn ssh_banner(rng: &mut impl Rng) -> Vec<u8> {
    let s = SSH_BANNERS[rng.gen_range(0..SSH_BANNERS.len())];
    let mut out = Vec::with_capacity(s.len() + 2);
    out.extend_from_slice(s.as_bytes());
    out.extend_from_slice(b"\r\n");
    out
}

/// The algorithm name-lists of [`ssh_kexinit`], in RFC 4253 order.
const KEX_NAME_LISTS: &[&str] = &[
    "curve25519-sha256,curve25519-sha256@libssh.org,ecdh-sha2-nistp256,\
     diffie-hellman-group-exchange-sha256,diffie-hellman-group14-sha256",
    "rsa-sha2-512,rsa-sha2-256,ecdsa-sha2-nistp256,ssh-ed25519",
    "chacha20-poly1305@openssh.com,aes128-ctr,aes192-ctr,aes256-ctr,\
     aes128-gcm@openssh.com,aes256-gcm@openssh.com",
    "chacha20-poly1305@openssh.com,aes128-ctr,aes192-ctr,aes256-ctr,\
     aes128-gcm@openssh.com,aes256-gcm@openssh.com",
    "umac-64-etm@openssh.com,umac-128-etm@openssh.com,\
     hmac-sha2-256-etm@openssh.com,hmac-sha2-512-etm@openssh.com",
    "umac-64-etm@openssh.com,umac-128-etm@openssh.com,\
     hmac-sha2-256-etm@openssh.com,hmac-sha2-512-etm@openssh.com",
    "none,zlib@openssh.com",
    "none,zlib@openssh.com",
    "",
    "",
];

/// The body of [`ssh_kexinit`] before padding: message type, cookie,
/// the length-prefixed name-lists, first_kex_packet_follows and the
/// reserved word.
const KEXINIT_BODY_LEN: usize = {
    let mut n = 1 + 16 + 1 + 4;
    let mut i = 0;
    while i < KEX_NAME_LISTS.len() {
        n += 4 + KEX_NAME_LISTS[i].len();
        i += 1;
    }
    n
};

/// Random padding of [`ssh_kexinit`]: at least 4 bytes, aligning
/// packet_length + padding to 8 (cipher block).
const KEXINIT_PAD: usize = {
    let pad = 8 - (KEXINIT_BODY_LEN + 5) % 8;
    if pad < 4 {
        pad + 8
    } else {
        pad
    }
};

/// The length of every [`ssh_kexinit`] packet.
pub const SSH_KEXINIT_LEN: usize = 4 + 1 + KEXINIT_BODY_LEN + KEXINIT_PAD;

/// An SSH_MSG_KEXINIT binary packet (RFC 4253 §6): framed length,
/// random cookie, ASCII algorithm name-lists, random padding. This is
/// the server's (or client's) first binary packet after the banner.
pub fn ssh_kexinit(rng: &mut impl Rng) -> Vec<u8> {
    let mut out = Vec::with_capacity(SSH_KEXINIT_LEN);
    out.extend_from_slice(&((KEXINIT_BODY_LEN + KEXINIT_PAD + 1) as u32).to_be_bytes());
    out.push(KEXINIT_PAD as u8);
    out.push(0x14); // SSH_MSG_KEXINIT
    put_random(&mut out, 16, rng); // cookie
    for l in KEX_NAME_LISTS {
        out.extend_from_slice(&(l.len() as u32).to_be_bytes());
        out.extend_from_slice(l.as_bytes());
    }
    out.push(0); // first_kex_packet_follows
    out.extend_from_slice(&[0, 0, 0, 0]); // reserved
    put_random(&mut out, KEXINIT_PAD, rng);
    debug_assert_eq!(out.len(), SSH_KEXINIT_LEN);
    out
}

const DNS_TLDS: &[&str] = &["com", "net", "org", "io", "cn", "dev"];

/// Write a random lowercase DNS label of `len` bytes into `out`.
fn push_label(out: &mut Vec<u8>, len: usize, rng: &mut impl Rng) {
    out.push(len as u8);
    for _ in 0..len {
        out.push(rng.gen_range(b'a'..=b'z'));
    }
}

/// A DNS query carried over TCP (RFC 7766): 2-byte length prefix, then
/// a standard header (RD set, one question, one EDNS0 OPT additional),
/// a 2–3 label QNAME, and an A/AAAA question.
pub fn dns_tcp_query(rng: &mut impl Rng) -> Vec<u8> {
    let mut msg = Vec::with_capacity(64);
    let id: u16 = rng.gen();
    msg.extend_from_slice(&id.to_be_bytes());
    msg.extend_from_slice(&[0x01, 0x20]); // RD + AD
    msg.extend_from_slice(&[0, 1, 0, 0, 0, 0, 0, 1]); // QD=1, AR=1
                                                      // QNAME
    if rng.gen_bool(0.4) {
        push_label(&mut msg, 3, rng); // "www"-ish
    }
    push_label(&mut msg, rng.gen_range(4..=12), rng);
    let tld = DNS_TLDS[rng.gen_range(0..DNS_TLDS.len())];
    msg.push(tld.len() as u8);
    msg.extend_from_slice(tld.as_bytes());
    msg.push(0);
    let qtype: u16 = if rng.gen_bool(0.7) { 1 } else { 28 }; // A / AAAA
    msg.extend_from_slice(&qtype.to_be_bytes());
    msg.extend_from_slice(&[0, 1]); // IN
                                    // EDNS0 OPT: root name, type 41, udp size 1232, no options.
    msg.extend_from_slice(&[0, 0, 41, 0x04, 0xd0, 0, 0, 0, 0, 0, 0]);
    let mut out = Vec::with_capacity(msg.len() + 2);
    out.extend_from_slice(&(msg.len() as u16).to_be_bytes());
    out.extend_from_slice(&msg);
    out
}

/// Draw the QNAME shape of a [`dns_tcp_response`]: its label length
/// and TLD, the two draws that fix the response's length.
pub fn dns_response_name(rng: &mut impl Rng) -> (usize, &'static str) {
    let label_len = rng.gen_range(4..=12);
    (label_len, DNS_TLDS[rng.gen_range(0..DNS_TLDS.len())])
}

/// The length of `dns_tcp_response(label_len, tld, _)`: the length
/// prefix (2), header (12), QNAME (label, TLD and root), question type
/// and class (4) and the answer (16).
pub fn dns_tcp_response_len(label_len: usize, tld: &str) -> usize {
    2 + 12 + (1 + label_len) + (1 + tld.len()) + 1 + 4 + 16
}

/// A DNS response over TCP: header with QR/RA set, the question echoed
/// (fresh random QNAME of the shape [`dns_response_name`] drew — nobody
/// correlates ids in the mix), and one A-record answer via name
/// compression.
pub fn dns_tcp_response(label_len: usize, tld: &str, rng: &mut impl Rng) -> Vec<u8> {
    let len = dns_tcp_response_len(label_len, tld);
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(&((len - 2) as u16).to_be_bytes());
    let id: u16 = rng.gen();
    out.extend_from_slice(&id.to_be_bytes());
    out.extend_from_slice(&[0x81, 0x80]); // QR + RD + RA, NOERROR
    out.extend_from_slice(&[0, 1, 0, 1, 0, 0, 0, 0]); // QD=1, AN=1
    push_label(&mut out, label_len, rng);
    out.push(tld.len() as u8);
    out.extend_from_slice(tld.as_bytes());
    out.push(0);
    out.extend_from_slice(&[0, 1, 0, 1]); // A, IN

    // Answer: pointer to offset 12, A, IN, TTL, 4-byte address.
    out.extend_from_slice(&[0xc0, 0x0c, 0, 1, 0, 1]);
    out.extend_from_slice(&[0, 0, 0x0e, 0x10]); // TTL 3600
    out.extend_from_slice(&[0, 4]);
    put_random(&mut out, 4, rng);
    debug_assert_eq!(out.len(), len);
    out
}

/// The fixed head of every [`http_response`]: the header block (its
/// ETag always 8 hex digits) and the body's opening up to `<title>`.
const HTTP_RESPONSE_HEAD: usize = 157;

/// The length of `http_response(len, _)`.
pub fn http_response_len(len: usize) -> usize {
    len.max(HTTP_RESPONSE_HEAD)
}

/// An HTTP/1.1 200 response of `len` bytes: realistic header block,
/// then an HTML-ish low-entropy body filling the remainder. Never cut
/// shorter than its fixed head (the header block and the body's
/// opening up to `<title>`), so a small `len` still gives a
/// well-formed response.
pub fn http_response(len: usize, rng: &mut impl Rng) -> Vec<u8> {
    let etag: u32 = rng.gen();
    let total = http_response_len(len);
    // The last word may run up to 9 letters and a space past `total`.
    let mut out = Vec::with_capacity(total + 10);
    // Writing into a `Vec` cannot fail.
    let _ = write!(
        out,
        "HTTP/1.1 200 OK\r\nServer: nginx/1.18.0\r\n\
         Content-Type: text/html; charset=utf-8\r\n\
         ETag: \"{etag:08x}\"\r\nConnection: keep-alive\r\n\r\n"
    );
    out.extend_from_slice(b"<!doctype html><html><head><title>");
    debug_assert_eq!(out.len(), HTTP_RESPONSE_HEAD);
    while out.len() < len {
        // Lowercase words separated by spaces: text-like entropy.
        let wl = rng.gen_range(2..=9);
        for _ in 0..wl {
            out.push(rng.gen_range(b'a'..=b'z'));
        }
        out.push(b' ');
    }
    out.truncate(total);
    out
}

/// A QUIC-long-header-shaped payload of `len.max(1)` bytes: uniformly
/// random bytes with the top two bits of byte 0 forced to `11` (long
/// header form + fixed bit), the shape of an Initial packet seen
/// mid-path. High entropy, not in any plaintext exemption class.
pub fn quic_like_payload(len: usize, rng: &mut impl Rng) -> Vec<u8> {
    let mut out = vec![0u8; len.max(1)];
    rng.fill(&mut out[..]);
    out[0] = 0xc0 | (out[0] & 0x3f);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use analysis::shannon_entropy;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn mod_k_is_exact_at_the_edges() {
        for k in 1..=256usize {
            let m = ModK::new(k);
            let k64 = k as u64;
            let edges = [0, 1, k64 - 1, k64, k64 + 1, u64::MAX - 1, u64::MAX];
            let multiples = (1..4).flat_map(|i| {
                let top = u64::MAX / k64 * k64;
                [top / i, (top / i).wrapping_sub(1), top - (i - 1) * k64]
            });
            for x in edges.into_iter().chain(multiples) {
                assert_eq!(m.reduce(x) as u64, x % k64, "x {x} k {k}");
            }
        }
    }

    #[test]
    fn hex_len_counts_printed_digits() {
        for shift in 0..32 {
            for x in [1u32 << shift, (1u32 << shift) - 1, (1u32 << shift) + 1] {
                assert_eq!(hex_len(x), format!("{x:x}").len(), "{x:#x}");
            }
        }
        assert_eq!(hex_len(0), 1);
        assert_eq!(hex_len(u32::MAX), 8);
    }

    /// `http_request` as it was first written, formatting its head and
    /// then growing it by the pad: the oracle for the presized builder.
    fn http_request_oracle(host: &str, len: usize, rng: &mut impl Rng) -> Vec<u8> {
        let path_entropy: u32 = rng.gen();
        let mut req = format!(
            "GET /page/{path_entropy:x} HTTP/1.1\r\nHost: {host}\r\nUser-Agent: curl/7.68.0\r\nAccept: */*\r\n"
        )
        .into_bytes();
        let pad = len.saturating_sub(req.len() + 2 + 9);
        if pad >= 1 {
            req.extend_from_slice(b"X-Pad: ");
            req.extend(std::iter::repeat_n(b'a', pad));
            req.extend_from_slice(b"\r\n");
        }
        req.extend_from_slice(b"\r\n");
        req
    }

    proptest! {
        /// The presized `http_request` writes the oracle's bytes and
        /// draws what it draws, for any host and target length,
        /// including targets too short to pad.
        #[test]
        fn http_request_matches_the_oracle(
            seed in any::<u64>(),
            host in proptest::collection::vec(b'a'..=b'z', 0..48),
            len in 0usize..1200,
        ) {
            let host = String::from_utf8(host).unwrap();
            let mut fast = StdRng::seed_from_u64(seed);
            let mut slow = fast.clone();
            let got = http_request(&host, len, &mut fast);
            prop_assert_eq!(got.capacity(), got.len());
            prop_assert_eq!(got, http_request_oracle(&host, len, &mut slow));
            prop_assert_eq!(fast.next_u64(), slow.next_u64());
        }

        /// A draw through `ModK` takes the same word and yields the same
        /// value as `gen_range(0..k)`, for every alphabet size, and
        /// leaves the RNG where `gen_range` leaves it.
        #[test]
        fn mod_k_draws_match_gen_range(seed in any::<u64>(), draws in 1usize..16) {
            for k in 1..=256usize {
                let mut fast = StdRng::seed_from_u64(seed ^ k as u64);
                let mut slow = fast.clone();
                let m = ModK::new(k);
                for _ in 0..draws {
                    prop_assert_eq!(m.reduce(fast.next_u64()), slow.gen_range(0..k));
                }
                prop_assert_eq!(fast.next_u64(), slow.next_u64());
            }
        }
    }

    #[test]
    fn entropy_targets_are_hit() {
        let mut rng = StdRng::seed_from_u64(1);
        for target in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0] {
            let p = entropy_payload(20_000, target, &mut rng);
            let e = shannon_entropy(&p);
            assert!((e - target).abs() < 0.25, "target {target}, measured {e}");
        }
    }

    #[test]
    fn near_eight_bits_is_achievable() {
        let mut rng = StdRng::seed_from_u64(2);
        let p = entropy_payload(60_000, 8.0, &mut rng);
        assert!(shannon_entropy(&p) > 7.95);
    }

    #[test]
    fn zero_entropy_is_constant() {
        let mut rng = StdRng::seed_from_u64(3);
        let p = entropy_payload(100, 0.0, &mut rng);
        assert!(p.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(shannon_entropy(&p), 0.0);
    }

    #[test]
    fn lengths_are_exact() {
        let mut rng = StdRng::seed_from_u64(4);
        for len in [1usize, 2, 100, 999, 2000] {
            assert_eq!(entropy_payload(len, 7.5, &mut rng).len(), len);
        }
        assert!(entropy_payload(0, 5.0, &mut rng).is_empty());
    }

    #[test]
    fn table4_exp1_spec() {
        // Exp 1: length [1, 1000], entropy > 7 — verify generator output
        // qualifies at the payload sizes where 7 bits is reachable.
        let mut rng = StdRng::seed_from_u64(5);
        let p = entropy_payload(1000, 7.5, &mut rng);
        assert!(shannon_entropy(&p) > 7.0, "{}", shannon_entropy(&p));
    }

    #[test]
    fn http_request_shape() {
        let mut rng = StdRng::seed_from_u64(6);
        let req = http_request("example.com", 402, &mut rng);
        assert!(req.starts_with(b"GET "));
        assert!((395..=410).contains(&req.len()), "{}", req.len());
        assert!(req.ends_with(b"\r\n\r\n"));
        let e = shannon_entropy(&req);
        assert!(e < 5.5, "HTTP entropy {e}");
    }

    #[test]
    fn tls_hello_shape() {
        let mut rng = StdRng::seed_from_u64(7);
        let rec = tls_client_hello(517, &mut rng);
        assert_eq!(rec.len(), 517);
        assert_eq!(&rec[..3], &[0x16, 0x03, 0x01]);
        assert_eq!(rec[5], 0x01);
        let body_len = u16::from_be_bytes([rec[3], rec[4]]) as usize;
        assert_eq!(body_len, 512);
    }

    #[test]
    fn realistic_hello_framing_is_consistent() {
        let mut rng = StdRng::seed_from_u64(8);
        for (version, pad) in [(TlsVersion::V1_2, None), (TlsVersion::V1_3, Some(517))] {
            let rec = tls_client_hello_realistic("www.example.org", version, pad, &mut rng);
            assert_eq!(&rec[..3], &[0x16, 0x03, 0x01]);
            let rec_len = u16::from_be_bytes([rec[3], rec[4]]) as usize;
            assert_eq!(rec.len(), rec_len + 5, "record length field");
            assert_eq!(rec[5], 0x01, "ClientHello type");
            let hs_len = u32::from_be_bytes([0, rec[6], rec[7], rec[8]]) as usize;
            assert_eq!(hs_len + 4, rec_len, "handshake length field");
            if let Some(total) = pad {
                assert_eq!(rec.len(), total, "padded to target");
            }
        }
    }

    #[test]
    fn tls13_hello_pads_to_517_for_any_sni() {
        let mut rng = StdRng::seed_from_u64(9);
        for sni in [
            "a.io",
            "www.wikipedia.org",
            "cdn.very-long-host-name.example.com",
        ] {
            let rec = tls_client_hello_realistic(sni, TlsVersion::V1_3, Some(517), &mut rng);
            assert_eq!(rec.len(), 517, "{sni}");
        }
    }

    #[test]
    fn server_flight_leads_with_server_hello() {
        let mut rng = StdRng::seed_from_u64(10);
        for version in [TlsVersion::V1_2, TlsVersion::V1_3] {
            let body_len = tls_flight_body_len(version, &mut rng);
            let flight = tls_server_flight(version, body_len, &mut rng);
            assert_eq!(flight.len(), tls_server_flight_len(version, body_len));
            assert_eq!(&flight[..3], &[0x16, 0x03, 0x03]);
            assert_eq!(flight[5], 0x02, "ServerHello type");
            let rec1 = u16::from_be_bytes([flight[3], flight[4]]) as usize;
            // A second record follows the ServerHello.
            assert!(flight.len() > rec1 + 5 + 5);
        }
    }

    #[test]
    fn ssh_payloads_have_rfc4253_shape() {
        let mut rng = StdRng::seed_from_u64(11);
        let banner = ssh_banner(&mut rng);
        assert!(banner.starts_with(b"SSH-2.0-"));
        assert!(banner.ends_with(b"\r\n"));
        let kex = ssh_kexinit(&mut rng);
        assert_eq!(kex.len(), SSH_KEXINIT_LEN);
        let packet_len = u32::from_be_bytes([kex[0], kex[1], kex[2], kex[3]]) as usize;
        assert_eq!(packet_len + 4, kex.len(), "framed length");
        assert_eq!(kex[5], 0x14, "SSH_MSG_KEXINIT");
        assert_eq!((packet_len + 4) % 8, 0, "block alignment");
    }

    #[test]
    fn dns_tcp_messages_carry_correct_length_prefix() {
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..50 {
            let q = dns_tcp_query(&mut rng);
            let plen = u16::from_be_bytes([q[0], q[1]]) as usize;
            assert_eq!(plen + 2, q.len());
            assert_eq!(q[0], 0, "length prefix high byte is 0 (short message)");
            let (label_len, tld) = dns_response_name(&mut rng);
            let r = dns_tcp_response(label_len, tld, &mut rng);
            assert_eq!(r.len(), dns_tcp_response_len(label_len, tld));
            let plen = u16::from_be_bytes([r[0], r[1]]) as usize;
            assert_eq!(plen + 2, r.len());
        }
    }

    #[test]
    fn quic_like_payload_has_long_header_bits() {
        let mut rng = StdRng::seed_from_u64(13);
        let p = quic_like_payload(600, &mut rng);
        assert_eq!(p.len(), 600);
        assert_eq!(p[0] & 0xc0, 0xc0);
        assert!(shannon_entropy(&p) > 6.5);
    }

    #[test]
    fn short_http_response_keeps_its_whole_head() {
        let mut rng = StdRng::seed_from_u64(15);
        let r = http_response(100, &mut rng);
        assert!(r.starts_with(b"HTTP/1.1 200 OK\r\n"));
        assert!(r.windows(4).any(|w| w == b"\r\n\r\n"), "header block cut");
        assert!(r.ends_with(b"<title>"), "{}", r.escape_ascii());
        assert_eq!(r.len(), 157);
    }

    #[test]
    fn http_response_is_headed_and_sized() {
        let mut rng = StdRng::seed_from_u64(14);
        let r = http_response(500, &mut rng);
        assert!(r.starts_with(b"HTTP/1.1 200 OK\r\n"));
        assert_eq!(r.len(), 500);
    }
}

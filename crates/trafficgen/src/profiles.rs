//! Protocol behaviour profiles: the background-traffic library.
//!
//! A [`Profile`] bundles everything the base-rate experiments need to
//! know about one background protocol: the support of its first-payload
//! length distribution, the Shannon-entropy band those payloads land
//! in, which side speaks first, what the server answers, and how large
//! the bulk tail after the handshake is. The six concrete profiles
//! (HTTP/1.1, TLS 1.2, TLS 1.3, SSH, DNS-over-TCP, QUIC-shaped) are
//! chosen to tile the paper's decision surface:
//!
//! * HTTP, TLS and SSH first payloads hit the plaintext **exemption**
//!   rules (§4.3) — a correct detector must never store them;
//! * DNS-over-TCP first payloads fall **below the length band**
//!   (len < 161), the other never-stored region;
//! * QUIC-shaped flows are the adversarial corner: high-entropy,
//!   in-band lengths, no exempt prefix — the paper's own §4.3 false
//!   positives ("The detection strategies are prone to false
//!   positives").
//!
//! Declared supports/bands are *contracts*, enforced by the property
//! suite in `tests/profile_props.rs`: every generated payload must have
//! its length inside `len_support` and its measured entropy inside
//! `entropy_band`.

use crate::drivers::Sample;
use crate::payload;
use crate::payload::TlsVersion;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Hostnames used for SNI / Host headers, length-varied on purpose so
/// TLS 1.2 and HTTP first-payload lengths spread over their supports.
const HOSTS: &[&str] = &[
    "example.com",
    "www.wikipedia.org",
    "cdn.jsdelivr.net",
    "static.cloudflareinsights.com",
    "api.github.com",
    "img.alicdn.com",
    "news.ycombinator.com",
    "upload-lb.eqiad.wikimedia.org",
];

/// Which concrete generator a profile drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Http,
    Tls12,
    Tls13,
    Ssh,
    DnsTcp,
    QuicLike,
}

/// One background protocol's behaviour contract. See the module docs
/// for how the six concrete profiles tile the detector's decision
/// surface.
#[derive(Clone, Copy, Debug)]
pub struct Profile {
    /// Short stable name, used in reports and golden tables.
    pub name: &'static str,
    /// Inclusive support of the first-payload length in bytes: every
    /// generated first payload satisfies `lo <= len <= hi`.
    pub len_support: (usize, usize),
    /// Inclusive band the measured per-byte Shannon entropy of every
    /// first payload falls into (bits).
    pub entropy_band: (f64, f64),
    /// True when the server speaks first (SSH banner exchange); the
    /// client then answers with its own first payload.
    pub server_first: bool,
    /// Size distribution of the server's bulk tail after the response
    /// (bytes); `Fixed(0)` means the flow is handshake + response only.
    pub bulk_tail: Sample,
    kind: Kind,
}

impl Profile {
    /// HTTP/1.1: plaintext `GET` requests (method-exempt), low entropy,
    /// sizeable response body.
    pub fn http() -> Profile {
        Profile {
            name: "http",
            len_support: (160, 600),
            entropy_band: (1.2, 4.8),
            server_first: false,
            bulk_tail: Sample::Uniform(32_768.0, 262_144.0),
            kind: Kind::Http,
        }
    }

    /// TLS 1.2: natural-length ClientHello (record-header exempt),
    /// mixed plaintext/key-material entropy.
    fn tls12() -> Profile {
        Profile {
            name: "tls1.2",
            len_support: (170, 280),
            entropy_band: (5.2, 6.5),
            server_first: false,
            bulk_tail: Sample::Uniform(24_576.0, 393_216.0),
            kind: Kind::Tls12,
        }
    }

    /// TLS 1.3: ClientHello padded to 517 bytes (RFC 7685, the
    /// Chrome-lineage fixed shape), record-header exempt.
    fn tls13() -> Profile {
        Profile {
            name: "tls1.3",
            len_support: (517, 517),
            entropy_band: (3.3, 4.3),
            server_first: false,
            bulk_tail: Sample::Uniform(24_576.0, 393_216.0),
            kind: Kind::Tls13,
        }
    }

    /// SSH: server banner first, client banner in reply (`SSH-`
    /// prefix-exempt), then a KEXINIT flight; no bulk tail.
    pub fn ssh() -> Profile {
        Profile {
            name: "ssh",
            len_support: (19, 48),
            entropy_band: (3.5, 4.5),
            server_first: true,
            bulk_tail: Sample::Fixed(0.0),
            kind: Kind::Ssh,
        }
    }

    /// DNS over TCP: short framed queries — never exempt, but below
    /// the detector's length band, so never stored either.
    fn dns_tcp() -> Profile {
        Profile {
            name: "dns-tcp",
            len_support: (30, 70),
            entropy_band: (2.5, 4.3),
            server_first: false,
            bulk_tail: Sample::Fixed(0.0),
            kind: Kind::DnsTcp,
        }
    }

    /// QUIC-shaped: high-entropy, in-band lengths, no exempt prefix —
    /// the profile that exercises the detector's false-positive
    /// surface.
    pub fn quic_like() -> Profile {
        Profile {
            name: "quic-like",
            len_support: (180, 900),
            entropy_band: (6.5, 8.0),
            server_first: false,
            bulk_tail: Sample::Uniform(16_384.0, 131_072.0),
            kind: Kind::QuicLike,
        }
    }

    /// All six profiles, in the canonical report order.
    pub fn all() -> Vec<Profile> {
        vec![
            Profile::http(),
            Profile::tls12(),
            Profile::tls13(),
            Profile::ssh(),
            Profile::dns_tcp(),
            Profile::quic_like(),
        ]
    }

    /// Stable index of this profile inside [`Profile::all`].
    pub fn index(&self) -> usize {
        match self.kind {
            Kind::Http => 0,
            Kind::Tls12 => 1,
            Kind::Tls13 => 2,
            Kind::Ssh => 3,
            Kind::DnsTcp => 4,
            Kind::QuicLike => 5,
        }
    }

    /// Draw a first-payload length from the declared support.
    fn draw_len(&self, rng: &mut impl Rng) -> usize {
        let (lo, hi) = self.len_support;
        if lo >= hi {
            lo
        } else {
            rng.gen_range(lo..=hi)
        }
    }

    /// The *client's* first payload (for [`Profile::ssh`] this is the
    /// client banner sent after the server's greeting).
    pub fn first_payload(&self, rng: &mut impl Rng) -> Vec<u8> {
        match self.kind {
            Kind::Http => {
                let len = self.draw_len(rng);
                let host = HOSTS[rng.gen_range(0..HOSTS.len())];
                payload::http_request(host, len, rng)
            }
            Kind::Tls12 => {
                let host = HOSTS[rng.gen_range(0..HOSTS.len())];
                payload::tls_client_hello_realistic(host, TlsVersion::V1_2, None, rng)
            }
            Kind::Tls13 => {
                let host = HOSTS[rng.gen_range(0..HOSTS.len())];
                payload::tls_client_hello_realistic(host, TlsVersion::V1_3, Some(517), rng)
            }
            Kind::Ssh => payload::ssh_banner(rng),
            Kind::DnsTcp => payload::dns_tcp_query(rng),
            Kind::QuicLike => {
                let len = self.draw_len(rng);
                payload::quic_like_payload(len, rng)
            }
        }
    }

    /// The server's greeting for server-first protocols (`Some` only
    /// when [`Profile::server_first`]): the SSH identification line.
    pub fn server_greeting(&self, rng: &mut impl Rng) -> Option<Vec<u8>> {
        match self.kind {
            Kind::Ssh => Some(payload::ssh_banner(rng)),
            _ => None,
        }
    }

    /// The server's response to the client's first payload.
    pub fn server_response(&self, rng: &mut impl Rng) -> Vec<u8> {
        response(self.kind, rng)
    }

    /// The length of `response_synth()(key)`, from the 0–2 draws that
    /// fix it, without building the response.
    pub fn server_response_len(&self, key: u64) -> usize {
        Plan::draw(self.kind, &mut StdRng::seed_from_u64(key)).len()
    }

    /// [`Profile::server_response`] as a function of an RNG seed:
    /// `response_synth()(key)` is the response drawn from
    /// `StdRng::seed_from_u64(key)`, the form a
    /// `netsim::Payload::Synth` regenerates its bytes from.
    pub fn response_synth(&self) -> fn(u64) -> Vec<u8> {
        match self.kind {
            Kind::Http => |key| response(Kind::Http, &mut StdRng::seed_from_u64(key)),
            Kind::Tls12 => |key| response(Kind::Tls12, &mut StdRng::seed_from_u64(key)),
            Kind::Tls13 => |key| response(Kind::Tls13, &mut StdRng::seed_from_u64(key)),
            Kind::Ssh => |key| response(Kind::Ssh, &mut StdRng::seed_from_u64(key)),
            Kind::DnsTcp => |key| response(Kind::DnsTcp, &mut StdRng::seed_from_u64(key)),
            Kind::QuicLike => |key| response(Kind::QuicLike, &mut StdRng::seed_from_u64(key)),
        }
    }

    /// Draw a bulk-tail size in bytes (0 = none).
    pub fn draw_tail(&self, rng: &mut impl Rng) -> u64 {
        let t = self.bulk_tail.draw(rng);
        if t <= 0.0 {
            0
        } else {
            t.round() as u64
        }
    }
}

/// The server's response for a profile of kind `kind`: the one
/// definition behind every response method.
fn response(kind: Kind, rng: &mut impl Rng) -> Vec<u8> {
    Plan::draw(kind, rng).build(rng)
}

/// A response's length-fixing values. Every response draws them first
/// from its RNG, so its length is known from them alone, and
/// [`Plan::build`] draws the rest of its bytes.
enum Plan {
    /// The requested length of an [`payload::http_response`].
    Http(usize),
    /// The second record's body length of a
    /// [`payload::tls_server_flight`].
    Tls(TlsVersion, usize),
    /// A [`payload::ssh_kexinit`], whose length is fixed.
    Ssh,
    /// The label length and TLD of a [`payload::dns_tcp_response`].
    Dns(usize, &'static str),
    /// The requested length of a [`payload::quic_like_payload`].
    Quic(usize),
}

impl Plan {
    /// Draw the length-fixing values of a `kind` response.
    fn draw(kind: Kind, rng: &mut impl Rng) -> Plan {
        match kind {
            Kind::Http => Plan::Http(rng.gen_range(320..=900)),
            Kind::Tls12 => Plan::Tls(
                TlsVersion::V1_2,
                payload::tls_flight_body_len(TlsVersion::V1_2, rng),
            ),
            Kind::Tls13 => Plan::Tls(
                TlsVersion::V1_3,
                payload::tls_flight_body_len(TlsVersion::V1_3, rng),
            ),
            Kind::Ssh => Plan::Ssh,
            Kind::DnsTcp => {
                let (label_len, tld) = payload::dns_response_name(rng);
                Plan::Dns(label_len, tld)
            }
            Kind::QuicLike => Plan::Quic(rng.gen_range(200..=900)),
        }
    }

    /// The length of the response [`Plan::build`] writes.
    fn len(&self) -> usize {
        match *self {
            Plan::Http(len) => payload::http_response_len(len),
            Plan::Tls(version, body_len) => payload::tls_server_flight_len(version, body_len),
            Plan::Ssh => payload::SSH_KEXINIT_LEN,
            Plan::Dns(label_len, tld) => payload::dns_tcp_response_len(label_len, tld),
            Plan::Quic(len) => len.max(1),
        }
    }

    /// Draw the rest of the response and write it.
    fn build(self, rng: &mut impl Rng) -> Vec<u8> {
        match self {
            Plan::Http(len) => payload::http_response(len, rng),
            Plan::Tls(version, body_len) => payload::tls_server_flight(version, body_len, rng),
            Plan::Ssh => payload::ssh_kexinit(rng),
            Plan::Dns(label_len, tld) => payload::dns_tcp_response(label_len, tld, rng),
            Plan::Quic(len) => payload::quic_like_payload(len, rng),
        }
    }
}

/// The seed of [`conn_rng`]`(seed, conn_id)`: what a
/// [`Profile::response_synth`] key is for a connection's response.
pub fn conn_seed(seed: u64, conn_id: u64) -> u64 {
    seed ^ conn_id.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Derive an independent deterministic RNG for one connection: used by
/// the mix apps so payload bytes depend only on `(seed, conn id)`, not
/// on event interleaving — the property that keeps the base-rate
/// experiment byte-identical across engines and worker counts.
pub fn conn_rng(seed: u64, conn_id: u64) -> StdRng {
    StdRng::seed_from_u64(conn_seed(seed, conn_id))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_profiles_have_distinct_names_and_indices() {
        let all = Profile::all();
        assert_eq!(all.len(), 6);
        for (i, p) in all.iter().enumerate() {
            assert_eq!(p.index(), i, "{}", p.name);
        }
        let mut names: Vec<_> = all.iter().map(|p| p.name).collect();
        names.dedup();
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn only_ssh_is_server_first() {
        for p in Profile::all() {
            assert_eq!(p.server_first, p.name == "ssh");
            let mut rng = StdRng::seed_from_u64(1);
            assert_eq!(p.server_greeting(&mut rng).is_some(), p.server_first);
        }
    }

    #[test]
    fn conn_rng_streams_are_independent_of_call_order() {
        let a1: u64 = conn_rng(7, 1).gen();
        let b1: u64 = conn_rng(7, 2).gen();
        let b2: u64 = conn_rng(7, 2).gen();
        let a2: u64 = conn_rng(7, 1).gen();
        assert_eq!(a1, a2);
        assert_eq!(b1, b2);
        assert_ne!(a1, b1);
    }
}

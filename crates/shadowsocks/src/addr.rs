//! The SOCKS-style target address specification (§2 of the paper).
//!
//! The first plaintext a Shadowsocks client sends through the tunnel:
//!
//! ```text
//! [0x01][4-byte IPv4 address][2-byte port]
//! [0x03][1-byte length][hostname][2-byte port]
//! [0x04][16-byte IPv6 address][2-byte port]
//! ```
//!
//! The parser's handling of *invalid* address types is exactly what the
//! GFW's random probes exercise: a random byte has a 3/256 chance of
//! being a valid type — or 3/16 for implementations that mask the upper
//! nibble (an artifact of the retired "one time auth" flag bits, §5.2.1).

/// Valid address-type byte for IPv4.
pub const ATYP_IPV4: u8 = 0x01;
/// Valid address-type byte for hostnames.
pub const ATYP_HOST: u8 = 0x03;
/// Valid address-type byte for IPv6.
pub const ATYP_IPV6: u8 = 0x04;

/// A parsed target specification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TargetAddr {
    /// Literal IPv4 target.
    Ipv4([u8; 4], u16),
    /// Hostname target (bytes are not validated; random probes decrypt
    /// to arbitrary garbage and real implementations pass it to the
    /// resolver as-is).
    Hostname(Vec<u8>, u16),
    /// Literal IPv6 target.
    Ipv6([u8; 16], u16),
}

impl TargetAddr {
    /// Serialize to the wire format.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            TargetAddr::Ipv4(ip, port) => {
                let mut v = Vec::with_capacity(7);
                v.push(ATYP_IPV4);
                v.extend_from_slice(ip);
                v.extend_from_slice(&port.to_be_bytes());
                v
            }
            TargetAddr::Hostname(name, port) => {
                assert!(name.len() <= 255, "hostname too long for spec");
                let mut v = Vec::with_capacity(4 + name.len());
                v.push(ATYP_HOST);
                v.push(name.len() as u8);
                v.extend_from_slice(name);
                v.extend_from_slice(&port.to_be_bytes());
                v
            }
            TargetAddr::Ipv6(ip, port) => {
                let mut v = Vec::with_capacity(19);
                v.push(ATYP_IPV6);
                v.extend_from_slice(ip);
                v.extend_from_slice(&port.to_be_bytes());
                v
            }
        }
    }

    /// Port of the target.
    pub fn port(&self) -> u16 {
        match self {
            TargetAddr::Ipv4(_, p) | TargetAddr::Hostname(_, p) | TargetAddr::Ipv6(_, p) => *p,
        }
    }
}

/// Outcome of an incremental parse attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseOutcome {
    /// The buffer does not yet hold a complete specification; keep
    /// reading. (The TIMEOUT column of Fig 10a.)
    NeedMore,
    /// The address-type byte is invalid. (The RST column — for
    /// implementations that treat this as a fatal error.)
    InvalidType(u8),
    /// A complete specification, plus how many buffer bytes it consumed.
    Complete(TargetAddr, usize),
}

/// Incrementally parse a target specification from decrypted plaintext.
///
/// `mask_type` reproduces Shadowsocks-libev's masking of the upper four
/// bits of the address-type byte before validation (`atyp & 0x0F`),
/// which raises a random byte's chance of passing validation from 3/256
/// to 3/16 — the probability signature the paper highlights (§5.2.1).
pub fn parse_spec(buf: &[u8], mask_type: bool) -> ParseOutcome {
    let Some(&atyp_raw) = buf.first() else {
        return ParseOutcome::NeedMore;
    };
    let atyp = if mask_type { atyp_raw & 0x0F } else { atyp_raw };
    match atyp {
        ATYP_IPV4 => match buf.first_chunk::<7>() {
            Some([_, ip @ .., p0, p1]) => {
                ParseOutcome::Complete(TargetAddr::Ipv4(*ip, u16::from_be_bytes([*p0, *p1])), 7)
            }
            None => ParseOutcome::NeedMore,
        },
        ATYP_HOST => {
            let [_, len, rest @ ..] = buf else {
                return ParseOutcome::NeedMore;
            };
            let len = usize::from(*len);
            match (rest.get(..len), rest.get(len..)) {
                (Some(name), Some([p0, p1, ..])) => ParseOutcome::Complete(
                    TargetAddr::Hostname(name.to_vec(), u16::from_be_bytes([*p0, *p1])),
                    2 + len + 2,
                ),
                _ => ParseOutcome::NeedMore,
            }
        }
        ATYP_IPV6 => match buf.first_chunk::<19>() {
            Some([_, ip @ .., p0, p1]) => {
                ParseOutcome::Complete(TargetAddr::Ipv6(*ip, u16::from_be_bytes([*p0, *p1])), 19)
            }
            None => ParseOutcome::NeedMore,
        },
        other => ParseOutcome::InvalidType(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_parse_roundtrip_ipv4() {
        let t = TargetAddr::Ipv4([93, 184, 216, 34], 443);
        let enc = t.encode();
        assert_eq!(enc.len(), 7);
        assert_eq!(parse_spec(&enc, false), ParseOutcome::Complete(t, 7));
    }

    #[test]
    fn encode_parse_roundtrip_hostname() {
        let t = TargetAddr::Hostname(b"example.com".to_vec(), 80);
        let enc = t.encode();
        assert_eq!(enc.len(), 2 + 11 + 2);
        assert_eq!(parse_spec(&enc, false), ParseOutcome::Complete(t, 15));
    }

    #[test]
    fn encode_parse_roundtrip_ipv6() {
        let t = TargetAddr::Ipv6([0x20; 16], 8443);
        let enc = t.encode();
        assert_eq!(enc.len(), 19);
        assert_eq!(parse_spec(&enc, false), ParseOutcome::Complete(t, 19));
    }

    #[test]
    fn trailing_bytes_are_not_consumed() {
        let mut enc = TargetAddr::Ipv4([1, 2, 3, 4], 80).encode();
        enc.extend_from_slice(b"GET / HTTP/1.1");
        match parse_spec(&enc, false) {
            ParseOutcome::Complete(_, consumed) => assert_eq!(consumed, 7),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn partial_specs_need_more() {
        let enc = TargetAddr::Ipv4([1, 2, 3, 4], 80).encode();
        for cut in 0..enc.len() {
            assert_eq!(
                parse_spec(&enc[..cut], false),
                ParseOutcome::NeedMore,
                "cut {cut}"
            );
        }
    }

    #[test]
    fn invalid_type_detected() {
        assert_eq!(
            parse_spec(&[0x05, 0, 0], false),
            ParseOutcome::InvalidType(5)
        );
        assert_eq!(parse_spec(&[0x00], false), ParseOutcome::InvalidType(0));
    }

    #[test]
    fn masking_rescues_high_bits() {
        // 0x11 & 0x0F == 0x01 → parsed as IPv4 when masking (the OTA
        // artifact), invalid otherwise.
        let buf = [0x11u8, 1, 2, 3, 4, 0, 80];
        assert!(matches!(parse_spec(&buf, true), ParseOutcome::Complete(..)));
        assert_eq!(parse_spec(&buf, false), ParseOutcome::InvalidType(0x11));
    }

    #[test]
    fn valid_fraction_of_random_bytes() {
        // Exactly 3 of 256 raw values are valid; exactly 48 of 256 after
        // masking (3 low nibbles × 16 high nibbles) — the 3/256 vs 3/16
        // probabilities of §5.2.1.
        let raw_valid = (0u16..256)
            .filter(|&b| !matches!(parse_spec(&[b as u8], false), ParseOutcome::InvalidType(_)))
            .count();
        let masked_valid = (0u16..256)
            .filter(|&b| !matches!(parse_spec(&[b as u8], true), ParseOutcome::InvalidType(_)))
            .count();
        assert_eq!(raw_valid, 3);
        assert_eq!(masked_valid, 48);
    }

    #[test]
    fn shortest_plausible_hostname_spec() {
        // §5.2.1: a hostname spec can be shorter than an IPv4 spec only
        // if the length byte decrypts to 1 or 2.
        let spec = [ATYP_HOST, 1, b'x', 0, 80];
        assert!(matches!(
            parse_spec(&spec, false),
            ParseOutcome::Complete(TargetAddr::Hostname(_, 80), 5)
        ));
    }

    #[test]
    #[should_panic(expected = "hostname too long")]
    fn oversized_hostname_rejected() {
        let _ = TargetAddr::Hostname(vec![b'a'; 256], 80).encode();
    }
}

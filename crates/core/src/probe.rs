//! The GFW's probe taxonomy (§3.2).
//!
//! Two families: **replay-based** probes (R1–R5), derived from the first
//! data-carrying packet of a recorded legitimate connection, and
//! **non-replay** probes (NR1/NR2) of seemingly random bytes with a
//! characteristic length distribution (Fig 2).

use netsim::packet::{Ipv4, SocketAddr};
use netsim::time::{Duration, SimTime};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The seven probe types of §3.2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ProbeKind {
    /// Identical replay.
    R1,
    /// Replay with byte 0 changed.
    R2,
    /// Replay with bytes 0–7 and 62–63 changed.
    R3,
    /// Replay with byte 16 changed.
    R4,
    /// Replay with bytes 6 and 16 changed.
    R5,
    /// Random probe of 7–9, 11–13, 15–17, 21–23, 32–34, 40–42 or
    /// 48–50 bytes.
    Nr1,
    /// Random probe of exactly 221 bytes.
    Nr2,
}

impl ProbeKind {
    /// True for the replay-derived family.
    pub fn is_replay(&self) -> bool {
        matches!(
            self,
            ProbeKind::R1 | ProbeKind::R2 | ProbeKind::R3 | ProbeKind::R4 | ProbeKind::R5
        )
    }

    /// Stage-2 probe types: only sent after a server answered stage-1
    /// probes with data (§4.2).
    pub fn is_stage2(&self) -> bool {
        matches!(
            self,
            ProbeKind::R3 | ProbeKind::R4 | ProbeKind::R5 | ProbeKind::Nr1
        )
    }
}

/// The NR1 length distribution: trios (n−1, n, n+1) around these
/// centres (Fig 2).
pub const NR1_CENTERS: [usize; 7] = [8, 12, 16, 22, 33, 41, 49];

/// The NR2 length (Fig 2).
pub const NR2_LEN: usize = 221;

/// Draw an NR1 probe length: a uniformly chosen trio centre ±1.
pub fn nr1_len(rng: &mut impl Rng) -> usize {
    let center = NR1_CENTERS[rng.gen_range(0..NR1_CENTERS.len())];
    (center as i64 + rng.gen_range(-1i64..=1)) as usize
}

/// True if `len` is a legal NR1 probe length.
pub fn is_nr1_len(len: usize) -> bool {
    NR1_CENTERS.iter().any(|&c| (c - 1..=c + 1).contains(&len))
}

fn change_byte(buf: &mut [u8], idx: usize, rng: &mut impl Rng) {
    if let Some(b) = buf.get_mut(idx) {
        let old = *b;
        let mut new = rng.gen::<u8>();
        while new == old {
            new = rng.gen();
        }
        *b = new;
    }
}

/// Build the probe payload for `kind`. Replay kinds derive it from
/// `base` (the recorded first payload of a legitimate connection), and
/// from an empty payload when it is `None`; NR kinds ignore it.
pub fn build_payload(kind: ProbeKind, base: Option<&[u8]>, rng: &mut impl Rng) -> Vec<u8> {
    let base = base.unwrap_or_default();
    match kind {
        ProbeKind::R1 => base.to_vec(),
        ProbeKind::R2 => {
            let mut p = base.to_vec();
            change_byte(&mut p, 0, rng);
            p
        }
        ProbeKind::R3 => {
            let mut p = base.to_vec();
            for i in 0..=7 {
                change_byte(&mut p, i, rng);
            }
            change_byte(&mut p, 62, rng);
            change_byte(&mut p, 63, rng);
            p
        }
        ProbeKind::R4 => {
            let mut p = base.to_vec();
            change_byte(&mut p, 16, rng);
            p
        }
        ProbeKind::R5 => {
            let mut p = base.to_vec();
            change_byte(&mut p, 6, rng);
            change_byte(&mut p, 16, rng);
            p
        }
        ProbeKind::Nr1 => {
            let mut p = vec![0u8; nr1_len(rng)];
            rng.fill(&mut p[..]);
            p
        }
        ProbeKind::Nr2 => {
            let mut p = vec![0u8; NR2_LEN];
            rng.fill(&mut p[..]);
            p
        }
    }
}

/// How a probed server reacted, as observed from the prober's side
/// (§5's taxonomy).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Reaction {
    /// Neither data nor a close before the prober's own timeout; the
    /// prober FINs first.
    Timeout,
    /// Server sent RST.
    Rst,
    /// Server closed with FIN/ACK first.
    FinAck,
    /// Server answered with payload data.
    Data,
    /// The TCP connection itself failed (SYN refused or unanswered) —
    /// seen when a server is gone or the port is closed.
    ConnectFailed,
}

/// One probe sent by the GFW, for analysis.
#[derive(Clone, Debug)]
pub struct ProbeRecord {
    /// Target of the probe.
    pub server: SocketAddr,
    /// Probe type.
    pub kind: ProbeKind,
    /// When the probe connection was opened.
    pub sent_at: SimTime,
    /// Delay since the triggering legitimate connection (replay kinds).
    pub trigger_delay: Option<Duration>,
    /// Stored-payload id this probe replays, shared by all occurrences
    /// of one payload (Fig 7's first-vs-all distinction).
    pub trigger_id: Option<u64>,
    /// Payload length.
    pub payload_len: usize,
    /// Source address used.
    pub src: Ipv4,
    /// Source port used.
    pub src_port: u16,
    /// Index of the controlling prober process (Fig 6).
    pub process: usize,
    /// Observed reaction, once known.
    pub reaction: Option<Reaction>,
    /// Connection attempts made (1 + connect-failure retries). The
    /// source fields reflect the attempt that resolved.
    pub attempts: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn r1_is_identical() {
        let mut rng = StdRng::seed_from_u64(1);
        let base = vec![7u8; 100];
        assert_eq!(build_payload(ProbeKind::R1, Some(&base), &mut rng), base);
    }

    #[test]
    fn byte_change_offsets() {
        let mut rng = StdRng::seed_from_u64(2);
        let base: Vec<u8> = (0..100u8).collect();
        let r2 = build_payload(ProbeKind::R2, Some(&base), &mut rng);
        assert_ne!(r2[0], base[0]);
        assert_eq!(&r2[1..], &base[1..]);

        let r3 = build_payload(ProbeKind::R3, Some(&base), &mut rng);
        for i in 0..=7 {
            assert_ne!(r3[i], base[i], "byte {i}");
        }
        assert_eq!(&r3[8..62], &base[8..62]);
        assert_ne!(r3[62], base[62]);
        assert_ne!(r3[63], base[63]);
        assert_eq!(&r3[64..], &base[64..]);

        let r4 = build_payload(ProbeKind::R4, Some(&base), &mut rng);
        assert_eq!(&r4[..16], &base[..16]);
        assert_ne!(r4[16], base[16]);
        assert_eq!(&r4[17..], &base[17..]);

        let r5 = build_payload(ProbeKind::R5, Some(&base), &mut rng);
        assert_ne!(r5[6], base[6]);
        assert_ne!(r5[16], base[16]);
        assert_eq!(&r5[..6], &base[..6]);
        assert_eq!(&r5[7..16], &base[7..16]);
        assert_eq!(&r5[17..], &base[17..]);
    }

    #[test]
    fn short_base_does_not_panic() {
        // A 10-byte base payload has no byte 16 or 62; R3/R4/R5 change
        // what exists.
        let mut rng = StdRng::seed_from_u64(3);
        let base = vec![1u8; 10];
        let r4 = build_payload(ProbeKind::R4, Some(&base), &mut rng);
        assert_eq!(r4, base, "no byte 16 to change");
        let r3 = build_payload(ProbeKind::R3, Some(&base), &mut rng);
        assert_eq!(r3.len(), 10);
        assert_ne!(&r3[..8], &base[..8]);
    }

    #[test]
    fn nr1_lengths_fall_in_trios() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut seen = netsim::hash::HashSet::default();
        for _ in 0..2000 {
            let p = build_payload(ProbeKind::Nr1, None, &mut rng);
            assert!(is_nr1_len(p.len()), "len {}", p.len());
            seen.insert(p.len());
        }
        // All 21 legal lengths appear.
        assert_eq!(seen.len(), 21);
    }

    #[test]
    fn nr2_is_221_bytes() {
        let mut rng = StdRng::seed_from_u64(5);
        let p = build_payload(ProbeKind::Nr2, None, &mut rng);
        assert_eq!(p.len(), 221);
        // And is not all zeros (i.e. actually random).
        assert!(p.iter().any(|&b| b != 0));
    }

    #[test]
    fn stage2_membership() {
        assert!(!ProbeKind::R1.is_stage2());
        assert!(!ProbeKind::R2.is_stage2());
        assert!(!ProbeKind::Nr2.is_stage2());
        assert!(ProbeKind::R3.is_stage2());
        assert!(ProbeKind::R4.is_stage2());
        assert!(ProbeKind::R5.is_stage2());
        assert!(ProbeKind::Nr1.is_stage2());
    }

    #[test]
    fn nr1_len_validator() {
        for good in [7, 8, 9, 11, 13, 22, 34, 48, 50] {
            assert!(is_nr1_len(good), "{good}");
        }
        for bad in [1, 10, 14, 18, 20, 24, 31, 35, 51, 221] {
            assert!(!is_nr1_len(bad), "{bad}");
        }
    }
}

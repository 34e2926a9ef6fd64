//! Client-side first-flight shaping.
//!
//! brdgrd works but is server-side and fingerprintable (§7.1's
//! limitations). The durable fix the OutlineVPN developers shipped
//! after disclosure (§11) lives in the *client*: change the shape of
//! the first flight so its length no longer matches the GFW's model.
//! Strategies here operate on the already-encrypted first-packet bytes,
//! so they compose with any cipher configuration.

use rand::Rng;

/// How a client emits its first flight.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FirstFlightPolicy {
    /// One write, as classic clients do — the detectable shape.
    Single,
    /// Split the first flight at a random point in `[lo, hi]` bytes and
    /// emit two writes (cheap length perturbation; both segments dodge
    /// the 161–999 window only if sized carefully).
    SplitAt {
        /// Minimum prefix length.
        lo: usize,
        /// Maximum prefix length.
        hi: usize,
    },
    /// Emit the flight in fixed-size small writes — brdgrd's effect,
    /// produced at the sender.
    Chop {
        /// Segment size.
        size: usize,
    },
}

/// Apply a policy: returns the sequence of writes.
pub fn shape_first_flight(
    policy: FirstFlightPolicy,
    wire: &[u8],
    rng: &mut impl Rng,
) -> Vec<Vec<u8>> {
    match policy {
        FirstFlightPolicy::Single => vec![wire.to_vec()],
        FirstFlightPolicy::SplitAt { lo, hi } => {
            if wire.len() <= lo {
                return vec![wire.to_vec()];
            }
            let hi = hi.min(wire.len() - 1);
            let cut = rng.gen_range(lo..=hi.max(lo));
            vec![wire[..cut].to_vec(), wire[cut..].to_vec()]
        }
        FirstFlightPolicy::Chop { size } => {
            let size = size.max(1);
            wire.chunks(size).map(|c| c.to_vec()).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn single_is_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let wire = vec![9u8; 400];
        let out = shape_first_flight(FirstFlightPolicy::Single, &wire, &mut rng);
        assert_eq!(out, vec![wire]);
    }

    #[test]
    fn split_preserves_bytes() {
        let mut rng = StdRng::seed_from_u64(2);
        let wire: Vec<u8> = (0..200u8).collect();
        let out = shape_first_flight(
            FirstFlightPolicy::SplitAt { lo: 10, hi: 60 },
            &wire,
            &mut rng,
        );
        assert_eq!(out.len(), 2);
        assert!((10..=60).contains(&out[0].len()));
        assert_eq!(out.concat(), wire);
    }

    #[test]
    fn chop_makes_small_segments() {
        let mut rng = StdRng::seed_from_u64(3);
        let wire = vec![1u8; 400];
        let out = shape_first_flight(FirstFlightPolicy::Chop { size: 40 }, &wire, &mut rng);
        assert_eq!(out.len(), 10);
        assert!(out.iter().all(|s| s.len() <= 40));
    }

    #[test]
    fn short_wire_split_degrades_gracefully() {
        let mut rng = StdRng::seed_from_u64(4);
        let wire = vec![1u8; 8];
        let out = shape_first_flight(
            FirstFlightPolicy::SplitAt { lo: 20, hi: 60 },
            &wire,
            &mut rng,
        );
        assert_eq!(out.len(), 1);
    }
}

//! Property suite for the protocol-profile library: the declared
//! contracts on every [`Profile`] — first-payload length support,
//! Shannon-entropy band, seed-determinism, and a response length walk
//! and synthesis that match the eager response — hold for arbitrary RNG
//! seeds. These contracts are what the base-rate experiment's
//! false-positive accounting rests on: a profile whose payloads drift
//! out of its declared band would silently move between the detector's
//! exemption and detection regions.

use analysis::shannon_entropy;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use trafficgen::Profile;

/// Pick a profile from a full-range index.
fn pick(idx: usize) -> Profile {
    let all = Profile::all();
    all[idx % all.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every generated first payload has its length inside the
    /// profile's declared inclusive support.
    #[test]
    fn first_payload_lengths_match_declared_support(
        idx in 0usize..6,
        seed in any::<u64>(),
    ) {
        let p = pick(idx);
        let mut rng = StdRng::seed_from_u64(seed);
        let payload = p.first_payload(&mut rng);
        let (lo, hi) = p.len_support;
        prop_assert!(
            (lo..=hi).contains(&payload.len()),
            "{}: len {} outside [{lo}, {hi}]",
            p.name,
            payload.len()
        );
    }

    /// Measured per-byte Shannon entropy of every first payload falls
    /// inside the profile's declared band.
    #[test]
    fn first_payload_entropy_stays_in_declared_band(
        idx in 0usize..6,
        seed in any::<u64>(),
    ) {
        let p = pick(idx);
        let mut rng = StdRng::seed_from_u64(seed);
        let payload = p.first_payload(&mut rng);
        let e = shannon_entropy(&payload);
        let (lo, hi) = p.entropy_band;
        prop_assert!(
            e >= lo && e <= hi,
            "{}: entropy {e:.3} outside [{lo}, {hi}] (len {})",
            p.name,
            payload.len()
        );
    }

    /// Generation is a pure function of the RNG seed: two runs from
    /// the same seed produce byte-identical payloads (first payload,
    /// greeting, response and tail draw alike).
    #[test]
    fn generation_is_byte_identical_for_a_fixed_seed(
        idx in 0usize..6,
        seed in any::<u64>(),
    ) {
        let p = pick(idx);
        let run = |s: u64| {
            let mut rng = StdRng::seed_from_u64(s);
            (
                p.first_payload(&mut rng),
                p.server_greeting(&mut rng),
                p.server_response(&mut rng),
                p.draw_tail(&mut rng),
            )
        };
        prop_assert_eq!(run(seed), run(seed), "{} diverged", p.name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// The mix sends a response as a description and walks the RNG for
    /// its length instead of building it. The walk must agree with the
    /// generator: the same length, the RNG left where the generator
    /// leaves it (the bulk-tail size is drawn next), and the bytes
    /// synthesized from the seed equal to the eager response.
    #[test]
    fn response_walk_and_synth_match_the_eager_response(
        idx in 0usize..6,
        seed in any::<u64>(),
    ) {
        let p = pick(idx);
        let mut eager_rng = StdRng::seed_from_u64(seed);
        let eager = p.server_response(&mut eager_rng);
        let mut walk_rng = StdRng::seed_from_u64(seed);
        prop_assert_eq!(p.server_response_len(&mut walk_rng), eager.len(), "{} length", p.name);
        prop_assert_eq!(walk_rng.next_u64(), eager_rng.next_u64(), "{} RNG state", p.name);
        prop_assert_eq!(p.response_synth()(seed), eager, "{} bytes", p.name);
    }
}

/// The server-side generators also respect basic shape invariants:
/// greetings only for server-first profiles, nonzero responses for
/// all, tails only where declared.
#[test]
fn server_side_generators_have_declared_shape() {
    for p in Profile::all() {
        let mut rng = StdRng::seed_from_u64(1234);
        assert_eq!(p.server_greeting(&mut rng).is_some(), p.server_first);
        assert!(!p.server_response(&mut rng).is_empty(), "{}", p.name);
        let has_tail_support = matches!(
            p.bulk_tail,
            trafficgen::drivers::Sample::Uniform(lo, _) if lo > 0.0
        );
        for _ in 0..32 {
            let t = p.draw_tail(&mut rng);
            assert_eq!(t > 0, has_tail_support, "{}", p.name);
        }
    }
}

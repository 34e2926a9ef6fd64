//! Property suite for the protocol-profile library: the declared
//! contracts on every [`Profile`] — first-payload length support,
//! Shannon-entropy band, seed-determinism, and a response length drawn
//! without building the response that matches the response built —
//! hold for arbitrary RNG seeds. These contracts are what the base-rate experiment's
//! false-positive accounting rests on: a profile whose payloads drift
//! out of its declared band would silently move between the detector's
//! exemption and detection regions.

use analysis::shannon_entropy;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
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

    /// The mix sends a response as a description and sizes it from
    /// the draws that fix its length, without building it. That length
    /// must be the length of the bytes synthesized from the same key,
    /// and those bytes must be the eager response from the same seed.
    #[test]
    fn response_len_matches_the_synthesized_response(
        idx in 0usize..6,
        key in any::<u64>(),
    ) {
        let p = pick(idx);
        let synth = p.response_synth()(key);
        prop_assert_eq!(p.server_response_len(key), synth.len(), "{} length", p.name);
        prop_assert_eq!(p.server_response(&mut StdRng::seed_from_u64(key)), synth, "{} bytes", p.name);
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

//! Table-driven classification tests: each profile's first payload,
//! under any seed, lands exactly where the paper's passive detector should put
//! it. This pins the false-positive surface the base-rate experiment
//! measures — if a generator drifts (an HTTP request losing its method
//! prefix, a QUIC-shaped payload sliding out of the length band), the
//! detector-side expectation here fails before any golden table does.

use gfw_core::passive::{PassiveConfig, PassiveDetector};
use rand::rngs::StdRng;
use rand::SeedableRng;
use trafficgen::Profile;

/// Expected detector outcome for one profile's first payloads.
struct Expect {
    name: &'static str,
    /// Plaintext-exempt (HTTP method / TLS record / SSH banner rules).
    exempt: bool,
    /// Replay-eligible candidate (in the length window, not exempt).
    candidate: bool,
    /// Ever stored (nonzero store probability)?
    storable: bool,
}

const TABLE: &[Expect] = &[
    Expect {
        name: "http",
        exempt: true,
        candidate: false,
        storable: false,
    },
    Expect {
        name: "tls1.2",
        exempt: true,
        candidate: false,
        storable: false,
    },
    Expect {
        name: "tls1.3",
        exempt: true,
        candidate: false,
        storable: false,
    },
    Expect {
        name: "ssh",
        exempt: true,
        candidate: false,
        storable: false,
    },
    // DNS over TCP: no exempt prefix (first byte is the length prefix's
    // zero high byte), but far below the 161-byte band floor — never a
    // candidate, never stored.
    Expect {
        name: "dns-tcp",
        exempt: false,
        candidate: false,
        storable: false,
    },
    // QUIC-shaped: the adversarial corner. High entropy, in-band
    // length, no plaintext prefix — the paper's §4.3 false-positive
    // class.
    Expect {
        name: "quic-like",
        exempt: false,
        candidate: true,
        storable: true,
    },
];

/// The classification is a property of the whole generator: any seed
/// produces the same outcome class.
#[test]
fn outcomes_hold_across_seeds() {
    let det = PassiveDetector::new(PassiveConfig::default());
    let profiles = Profile::all();
    assert_eq!(profiles.len(), TABLE.len());
    for (p, want) in profiles.iter().zip(TABLE) {
        assert_eq!(p.name, want.name, "table order");
        for seed in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let f = det.features(&p.first_payload(&mut rng));
            assert_eq!(f.exempt, want.exempt, "{} seed {seed}", p.name);
            assert_eq!(f.candidate, want.candidate, "{} seed {seed}", p.name);
            assert_eq!(
                f.store_probability > 0.0,
                want.storable,
                "{} seed {seed}",
                p.name
            );
        }
    }
}

/// The SSH *server* greeting — the first payload the tap actually sees
/// on a server-first flow — is exempt too.
#[test]
fn ssh_server_greeting_is_exempt() {
    let det = PassiveDetector::new(PassiveConfig::default());
    let ssh = Profile::ssh();
    for seed in 0..50u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let greeting = ssh.server_greeting(&mut rng).expect("ssh greets first");
        assert!(det.features(&greeting).exempt, "seed {seed}");
    }
}

/// QUIC-shaped store probabilities stay small per connection — the
/// base-rate experiment's false positives come from volume, not from
/// any single flow being likely. The worst case is a payload landing
/// on one of the Fig 8 stair lengths (rem 9/2 mod 16), which carries
/// roughly an 8% weight; everything else sits well under 1%.
#[test]
fn quic_like_store_probability_is_small_but_positive() {
    let det = PassiveDetector::new(PassiveConfig::default());
    let quic = Profile::quic_like();
    let mut worst: f64 = 0.0;
    let mut sum = 0.0;
    let n = 500u64;
    for seed in 0..n {
        let mut rng = StdRng::seed_from_u64(seed);
        let f = det.features(&quic.first_payload(&mut rng));
        assert!(f.store_probability > 0.0, "seed {seed}");
        worst = worst.max(f.store_probability);
        sum += f.store_probability;
    }
    assert!(worst < 0.10, "worst-case store probability {worst}");
    let mean = sum / n as f64;
    assert!(mean < 0.02, "mean store probability {mean}");
}

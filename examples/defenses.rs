//! The §7 defense toolbox, evaluated live:
//!
//! 1. brdgrd window shaping kills the passive detector's length feature
//!    (probing rate collapses — Fig 11);
//! 2. a nonce-only Bloom replay filter forgets across a server restart,
//!    so a delayed replay gets through (the §7.2 asymmetry);
//! 3. hardened reaction profiles are opaque to the inference battery.
//!
//! ```sh
//! cargo run --example defenses
//! ```

use gfwsim::defense::harden;
use gfwsim::experiments::runs::{brdgrd_run, BrdgrdRunConfig};
use gfwsim::probesim::{infer, EngineOracle};
use gfwsim::shadowsocks::bloom::PingPongBloom;
use gfwsim::shadowsocks::{Profile, ServerConfig};
use gfwsim::sscrypto::method::Method;

fn main() {
    // --- 1. brdgrd -----------------------------------------------------
    println!("1. brdgrd window shaping (Fig 11, compressed to 24 h):\n");
    let res = brdgrd_run(&BrdgrdRunConfig {
        hours: 24,
        active_windows: vec![(8, 16)],
        conns_per_5min: 16,
        seed: 11,
    });
    for (h, &count) in res.probes_per_hour.iter().enumerate() {
        let active = (8..16).contains(&(h as u64));
        println!(
            "  hour {h:>2} {} {:>3} {}",
            if active { "[brdgrd]" } else { "        " },
            count,
            "#".repeat(count.min(50) as usize)
        );
    }

    // --- 2. replay filter across a restart ------------------------------
    println!("\n2. a replay filter vs a 570-hour delayed replay across a restart:\n");
    let captured_nonce = b"salt-captured-by-the-gfw";

    let mut bloom = PingPongBloom::new(100_000);
    bloom.check_and_insert(captured_nonce);
    bloom.restart(); // server rebooted during the 570 hours
    let bloom_catches = bloom.check_and_insert(captured_nonce);
    println!("  pure-nonce Bloom filter: replay detected = {bloom_catches}  ← the §7.2 asymmetry");
    assert!(!bloom_catches);

    // --- 3. hardened reactions ------------------------------------------
    println!("\n3. inference against a hardened server:\n");
    let hardened = harden(Profile::OUTLINE_1_0_6);
    let config = ServerConfig::new(Method::ChaCha20IetfPoly1305, "pw", hardened);
    let mut oracle = EngineOracle::new(config, 12);
    let f = infer(&mut oracle, 60);
    println!(
        "  harden(OutlineVPN v1.0.6) → shadowsocks_like = {}, guess: {}",
        f.shadowsocks_like, f.implementation_guess
    );
    println!("\n(brdgrd and hardened reactions compose; a restart still reopens the replay window, see DESIGN.md §7)");
}

//! Component-level tests for gfw-core pieces not exercised end-to-end:
//! fleet pool exhaustion, classifier boundaries, probe-log summaries.

use gfw_core::classifier::{Classifier, Verdict, MIN_PROBES};
use gfw_core::fleet::{Fleet, FleetConfig};
use gfw_core::probe::{ProbeKind, Reaction};
use netsim::packet::Ipv4;
use netsim::sim::{SimConfig, Simulator};
use netsim::time::SimTime;

#[test]
fn fleet_survives_pool_exhaustion() {
    let mut sim = Simulator::new(SimConfig::default(), 1);
    let mut fleet = Fleet::install(
        &mut sim,
        FleetConfig {
            pool_size: 10,
            p_new_ip: 0.9, // aggressive allocation
            ..Default::default()
        },
        2,
    );
    // Far more probes than the pool holds: must reuse, never panic.
    let mut unique = std::collections::HashSet::new();
    for _ in 0..5_000 {
        unique.insert(fleet.assign(SimTime::ZERO).ip);
    }
    assert!(unique.len() <= 10);
    assert_eq!(fleet.unique_ips(), unique.len());
}

#[test]
fn classifier_minimum_probe_boundary() {
    let server = (Ipv4::new(1, 1, 1, 1), 8388);
    let mut c = Classifier::new();
    // MIN_PROBES - 1 non-decisive records: inconclusive.
    for _ in 0..MIN_PROBES - 1 {
        c.record(server, ProbeKind::Nr2, 221, Reaction::Rst);
    }
    assert_eq!(c.verdict(server), Verdict::Inconclusive);
    assert_eq!(c.observations(server), MIN_PROBES - 1);
    // One more tips it over (deterministic RST → AEAD signature, since
    // no short-probe RSTs were seen).
    c.record(server, ProbeKind::Nr2, 221, Reaction::Rst);
    assert!(matches!(
        c.verdict(server),
        Verdict::LikelyShadowsocks { .. }
    ));
}

#[test]
fn classifier_connectfailed_heavy_is_not_shadowsocks() {
    // A dead host answers nothing at the TCP level: mixed
    // connect-failures don't match any signature.
    let server = (Ipv4::new(2, 2, 2, 2), 8388);
    let mut c = Classifier::new();
    for _ in 0..12 {
        c.record(server, ProbeKind::Nr2, 221, Reaction::ConnectFailed);
    }
    match c.verdict(server) {
        Verdict::NotShadowsocks | Verdict::Inconclusive => {}
        v => panic!("dead host classified as {v:?}"),
    }
}

#[test]
fn classifier_tracks_servers_independently() {
    let a = (Ipv4::new(3, 3, 3, 3), 8388);
    let b = (Ipv4::new(4, 4, 4, 4), 8388);
    let mut c = Classifier::new();
    for _ in 0..MIN_PROBES {
        c.record(a, ProbeKind::Nr2, 221, Reaction::Rst);
        c.record(b, ProbeKind::Nr2, 221, Reaction::Timeout);
    }
    assert!(matches!(c.verdict(a), Verdict::LikelyShadowsocks { .. }));
    match c.verdict(b) {
        Verdict::LikelyShadowsocks { confidence, .. } => {
            assert!(confidence < 0.5, "all-silent must be low confidence")
        }
        v => panic!("{v:?}"),
    }
    assert_eq!(c.verdict((Ipv4::new(5, 5, 5, 5), 1)), Verdict::Inconclusive);
}

#[test]
fn probe_log_is_empty_before_traffic() {
    // Build a tiny world so a GfwState exists, then read its log.
    use gfw_core::{Gfw, GfwConfig};
    let mut sim = Simulator::new(SimConfig::default(), 3);
    let mut cfg = GfwConfig::default();
    cfg.fleet.pool_size = 50;
    let handle = Gfw::install(&mut sim, cfg, 4);
    let st = handle.state.borrow();
    assert!(st.probes().is_empty(), "no probes before any traffic");
}

#[test]
fn fleet_epoch_churn_is_bounded() {
    let mut sim = Simulator::new(SimConfig::default(), 5);
    let mut fleet = Fleet::install(
        &mut sim,
        FleetConfig {
            pool_size: 1000,
            ..Default::default()
        },
        6,
    );
    for _ in 0..2_000 {
        fleet.assign(SimTime::ZERO);
    }
    let before = fleet.unique_ips();
    fleet.churn_epoch(0.5);
    let after = fleet.unique_ips();
    assert!(after <= before);
    assert!(
        (after as f64) >= 0.4 * before as f64,
        "retain=0.5 kept only {after}/{before}"
    );
    // Churn to zero keeps nothing.
    fleet.churn_epoch(0.0);
    assert_eq!(fleet.unique_ips(), 0);
    // And assignment still works afterwards.
    let s = fleet.assign(SimTime::ZERO);
    assert!(analysis::asn::lookup(s.ip).is_some());
}

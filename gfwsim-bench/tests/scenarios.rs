//! The staged workloads build the same scenarios as the experiment
//! functions they mirror: at small sizes, the seed-pure counters and
//! rendered output must match exactly. Tracing must not change them.

use experiments::figures::{baserate, fig7, scale, REGISTRY};
use experiments::Scale;
use gfwsim_bench::workloads::{self, golden_body, GOLDEN_SEED};
use netsim::EngineMode;

fn count(o: &workloads::Outcome, name: &str) -> u64 {
    *o.counts
        .get(name)
        .unwrap_or_else(|| panic!("missing counter {name}"))
}

#[test]
fn bulk_matches_scale_measure() {
    for seed in [7, 2020] {
        let want = scale::measure(EngineMode::Hybrid, 2_000, seed);
        let got = workloads::bulk(2_000, seed);
        assert!(got.problems.is_empty(), "{:?}", got.problems);
        assert_eq!(count(&got, "bulk.completed"), want.completed);
        assert_eq!(count(&got, "bulk.bytes"), want.bytes);
        assert_eq!(count(&got, "netsim.events"), want.stats.events);
        assert_eq!(count(&got, "netsim.packets_sent"), want.stats.packets_sent);
        assert_eq!(
            count(&got, "netsim.flow.promoted"),
            want.stats.flows_promoted
        );
        assert_eq!(got.units, 2_000);
    }
}

#[test]
fn mix_matches_baserate_measure() {
    let seed = 11;
    let want = baserate::measure(EngineMode::Hybrid, 2_000, 100, seed);
    for traced in [false, true] {
        let got = workloads::mix(2_000, 100, seed, traced);
        assert!(got.problems.is_empty(), "{:?}", got.problems);
        let v = want.verdicts;
        for (name, value) in [
            ("gfw.inspected", v.inspected),
            ("mix.exempt", v.exempt),
            ("mix.stored_true", v.stored_true),
            ("mix.stored_false", v.stored_false),
            ("mix.missed_true", v.missed_true),
            ("mix.passed_false", v.passed_false),
            ("gfw.probes", want.probes_total as u64),
            ("mix.probes_to_ss", want.probes_to_ss as u64),
            ("mix.ss_flows", want.ss_flows as u64),
        ] {
            assert_eq!(count(&got, name), value, "{name} (traced: {traced})");
        }
        assert_eq!(got.tap.is_some(), traced);
    }
}

#[test]
fn ss_run_matches_fig7_run() {
    let seed = 9;
    let want = fig7::run(Scale::Quick, seed).to_string();
    let plain = workloads::ss_run(3_000, 1_000, seed, false);
    let traced = workloads::ss_run(3_000, 1_000, seed, true);
    assert_eq!(plain.render, want);
    assert!(plain.problems.is_empty(), "{:?}", plain.problems);
    assert_eq!(plain.digest(), traced.digest(), "tracing changed the run");
    let (secs, closed) = traced.tap.expect("traced run brackets the tap");
    assert!(secs > 0.0);
    assert_eq!(closed, count(&traced, "gfw.packets_tapped"));
}

#[test]
fn golden_renders_match_at_the_golden_seed() {
    for id in ["fig10", "table4", "fig7", "baserate"] {
        let entry = REGISTRY.iter().find(|e| e.id == id).expect("registry id");
        let render = (entry.render)(Scale::Quick, GOLDEN_SEED);
        assert_eq!(
            Some(format!("{render}\n").as_str()),
            golden_body(id),
            "{id} differs from its golden body"
        );
    }
}

//! Run every experiment and print the full report — the one-command
//! regeneration of the paper's evaluation, executed through the
//! deterministic parallel run engine.
//!
//! Flags:
//!
//! * `--paper` / `--full` — paper-comparable sample sizes (slower);
//! * `--jobs N` — worker count (default: `GFWSIM_JOBS`, then available
//!   parallelism); output is byte-identical for every `N`;
//! * `--only <id,...>` — run a subset, e.g. `--only fig10,table5`;
//! * `--stats` — append per-experiment simulator counters.

use experiments::figures::{Entry, REGISTRY};
use experiments::report::Table;
use experiments::{runner, Scale};

fn main() {
    runner::configure_from_env();
    let scale = Scale::from_args();
    let seed = 2020;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let show_stats = args.iter().any(|a| a == "--stats");
    let entries: Vec<&Entry> = match only_filter(&args) {
        Ok(entries) => entries,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };

    println!("==== gfwsim: regenerating all tables & figures (scale {scale:?}) ====\n");
    let specs: Vec<_> = entries
        .iter()
        .map(|e| {
            let render = e.render;
            move || render(scale, seed)
        })
        .collect();
    let runs = runner::run_jobs_detailed(specs);
    for (e, r) in entries.iter().zip(&runs) {
        println!("== {} ==\n{}", e.title, r.output);
    }

    if show_stats {
        let mut t = Table::new(&[
            "experiment",
            "events",
            "conns",
            "pkts sent",
            "tapped",
            "dropped",
            "probes",
            "promoted",
            "demoted",
            "fluid bytes",
            "peak queue",
            "ev/pkt",
            "wall ms",
            "events/s",
        ]);
        let mut total = netsim::sim::SimStats::default();
        let mut total_wall = std::time::Duration::ZERO;
        for (e, r) in entries.iter().zip(&runs) {
            let s = &r.stats;
            total.merge(s);
            total_wall += r.wall;
            t.row(&[
                e.id.to_string(),
                s.events.to_string(),
                s.connections.to_string(),
                s.packets_sent.to_string(),
                s.packets_tapped.to_string(),
                s.packets_dropped.to_string(),
                s.probes_launched.to_string(),
                s.flows_promoted.to_string(),
                s.flows_demoted.to_string(),
                s.fluid_bytes_modeled.to_string(),
                s.peak_queue_depth.to_string(),
                events_per_packet(s),
                format!("{:.1}", r.wall.as_secs_f64() * 1e3),
                format!("{:.0}", events_per_sec(s.events, r.wall)),
            ]);
        }
        t.row(&[
            "total".to_string(),
            total.events.to_string(),
            total.connections.to_string(),
            total.packets_sent.to_string(),
            total.packets_tapped.to_string(),
            total.packets_dropped.to_string(),
            total.probes_launched.to_string(),
            total.flows_promoted.to_string(),
            total.flows_demoted.to_string(),
            total.fluid_bytes_modeled.to_string(),
            total.peak_queue_depth.to_string(),
            events_per_packet(&total),
            format!("{:.1}", total_wall.as_secs_f64() * 1e3),
            format!("{:.0}", events_per_sec(total.events, total_wall)),
        ]);
        println!("== runner stats ==\n{}", t.render());
        println!("peak rss (process): {} kB", runner::peak_rss_kb());
        println!(
            "(wall times are per-job CPU-side measurements; with parallel \
workers the total exceeds elapsed time. Peak RSS is the whole process's \
VmHWM after every job ran, not a per-experiment figure; 0 on platforms \
without procfs)"
        );
    }
}

/// Simulator events per wall-clock second; 0 for degenerate timings.
fn events_per_sec(events: u64, wall: std::time::Duration) -> f64 {
    let secs = wall.as_secs_f64();
    if secs > 0.0 {
        events as f64 / secs
    } else {
        0.0
    }
}

/// Events per packet sent, 2 decimals; `-` when no packet was sent. A
/// timer storm shows up here long before it shows up in wall time.
fn events_per_packet(s: &netsim::sim::SimStats) -> String {
    if s.packets_sent == 0 {
        return "-".to_string();
    }
    format!("{:.2}", s.events as f64 / s.packets_sent as f64)
}

/// Resolve `--only a,b,c` against the registry, keeping registry order.
fn only_filter(args: &[String]) -> Result<Vec<&'static Entry>, String> {
    let mut wanted: Option<Vec<String>> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let list = if a == "--only" {
            it.next().cloned().unwrap_or_default()
        } else if let Some(v) = a.strip_prefix("--only=") {
            v.to_string()
        } else {
            continue;
        };
        wanted = Some(
            list.split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect(),
        );
    }
    let Some(ids) = wanted else {
        return Ok(REGISTRY.iter().collect());
    };
    // Collect every unknown id before failing, so a mixed list reports
    // all its mistakes in one pass instead of one per invocation.
    let unknown: Vec<&String> = ids
        .iter()
        .filter(|id| !REGISTRY.iter().any(|e| e.id == **id))
        .collect();
    if !unknown.is_empty() {
        let known: Vec<&str> = REGISTRY.iter().map(|e| e.id).collect();
        let listed = unknown
            .iter()
            .map(|id| format!("unknown experiment id `{id}`"))
            .collect::<Vec<_>>()
            .join("\n");
        return Err(format!("{listed}\nknown ids: {}", known.join(", ")));
    }
    Ok(REGISTRY
        .iter()
        .filter(|e| ids.iter().any(|id| id == e.id))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn events_per_packet_has_two_decimals_and_a_dash_for_no_packets() {
        let mut s = netsim::sim::SimStats::default();
        assert_eq!(events_per_packet(&s), "-");
        s.events = 10;
        s.packets_sent = 7;
        assert_eq!(events_per_packet(&s), "1.43");
    }

    #[test]
    fn no_only_selects_everything() {
        let entries = only_filter(&args(&["--jobs", "2"])).unwrap();
        assert_eq!(entries.len(), REGISTRY.len());
    }

    #[test]
    fn known_ids_keep_registry_order() {
        let entries = only_filter(&args(&["--only", "fig10,fig2"])).unwrap();
        let ids: Vec<&str> = entries.iter().map(|e| e.id).collect();
        assert_eq!(ids, ["fig2", "fig10"], "registry order, not list order");
    }

    fn expect_err(r: Result<Vec<&'static Entry>, String>) -> String {
        match r {
            Ok(entries) => panic!("expected an error, got {} entries", entries.len()),
            Err(msg) => msg,
        }
    }

    #[test]
    fn mixed_unknown_ids_are_all_reported() {
        let err = expect_err(only_filter(&args(&["--only", "fig99,fig2,bogus"])));
        assert!(err.contains("unknown experiment id `fig99`"), "{err}");
        assert!(err.contains("unknown experiment id `bogus`"), "{err}");
        assert!(!err.contains("`fig2`"), "known id flagged: {err}");
        assert!(err.contains("known ids: "), "{err}");
    }

    #[test]
    fn single_unknown_id_message_is_stable() {
        let err = expect_err(only_filter(&args(&["--only=fig99"])));
        assert!(err.starts_with("unknown experiment id `fig99`"), "{err}");
    }
}

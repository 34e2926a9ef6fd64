//! Run every experiment and print the full report — the one-command
//! regeneration of the paper's evaluation, executed through the
//! deterministic parallel run engine. This is the one entry point for
//! the paper's tables and figures; `--only <id>` runs a single one.

use experiments::figures::{Entry, REGISTRY};
use experiments::report::Table;
use experiments::{runner, Scale};

const USAGE: &str = "\
usage: exp-all [--paper] [--jobs N] [--only ID,...] [--stats] [--help]

  --paper        paper-comparable sample sizes (slower; default: quick)
  --jobs N       worker count, a positive integer (default: GFWSIM_JOBS,
                 then available parallelism); output is byte-identical
                 for every N
  --only ID,...  run a subset in registry order, e.g. --only fig10,table5
  --stats        append per-experiment simulator counters
  --help         print this message";

/// What the command line asked for.
#[derive(Debug, PartialEq)]
struct Opts {
    scale: Scale,
    jobs: Option<usize>,
    /// The raw `--only` list, resolved by [`only_filter`].
    only: Option<String>,
    stats: bool,
}

/// Read `exp-all`'s arguments (without the program name). `Ok(None)`
/// means `--help`; an unknown argument or a bad `--jobs` is an error.
fn parse_args(mut args: Vec<String>) -> Result<Option<Opts>, String> {
    let jobs = runner::take_jobs_arg(&mut args)?;
    let mut opts = Opts {
        scale: Scale::Quick,
        jobs,
        only: None,
        stats: false,
    };
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--help" => return Ok(None),
            "--paper" => opts.scale = Scale::Paper,
            "--stats" => opts.stats = true,
            "--only" => opts.only = Some(it.next().ok_or("--only needs a list of ids")?),
            _ => match a.strip_prefix("--only=") {
                Some(list) => opts.only = Some(list.to_string()),
                None => return Err(format!("unknown argument `{a}`")),
            },
        }
    }
    Ok(Some(opts))
}

fn main() {
    let opts = match parse_args(std::env::args().skip(1).collect()) {
        Ok(Some(opts)) => opts,
        Ok(None) => {
            println!("{USAGE}");
            return;
        }
        Err(msg) => {
            eprintln!("exp-all: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match runner::requested_jobs(opts.jobs) {
        Ok(jobs) => runner::set_jobs(jobs.unwrap_or(0)),
        Err(msg) => {
            eprintln!("exp-all: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    }
    let entries = match only_filter(opts.only.as_deref()) {
        Ok(entries) => entries,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let (scale, seed) = (opts.scale, 2020);

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

    if opts.stats {
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

/// Resolve an `--only a,b,c` list against the registry, keeping
/// registry order; no list selects everything.
fn only_filter(list: Option<&str>) -> Result<Vec<&'static Entry>, String> {
    let Some(list) = list else {
        return Ok(REGISTRY.iter().collect());
    };
    let ids: Vec<&str> = list
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    // Collect every unknown id before failing, so a mixed list reports
    // all its mistakes in one pass instead of one per invocation.
    let unknown: Vec<&str> = ids
        .iter()
        .copied()
        .filter(|id| !REGISTRY.iter().any(|e| e.id == *id))
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
    Ok(REGISTRY.iter().filter(|e| ids.contains(&e.id)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Result<Option<Opts>, String> {
        parse_args(v.iter().map(|s| s.to_string()).collect())
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
    fn every_accepted_form_parses() {
        let quick = Opts {
            scale: Scale::Quick,
            jobs: None,
            only: None,
            stats: false,
        };
        assert_eq!(parse(&[]), Ok(Some(quick)));
        let all = Opts {
            scale: Scale::Paper,
            jobs: Some(3),
            only: Some("fig10,table5".to_string()),
            stats: true,
        };
        let spaced = [
            "--paper",
            "--jobs",
            "3",
            "--only",
            "fig10,table5",
            "--stats",
        ];
        assert_eq!(parse(&spaced).as_ref(), Ok(&Some(all)));
        let joined = ["--stats", "--only=fig10,table5", "--jobs=3", "--paper"];
        assert_eq!(parse(&joined), parse(&spaced));
        assert_eq!(parse(&["--paper", "--help"]), Ok(None));
    }

    #[test]
    fn bad_arguments_are_rejected() {
        for bad in [
            &["--pape"][..],
            &["--full"],
            &["fig10"],
            &["--jobs", "0"],
            &["--jobs", "x"],
            &["--jobs"],
            &["--only"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} accepted");
        }
        assert_eq!(
            parse(&["--pape"]),
            Err("unknown argument `--pape`".to_string())
        );
    }

    #[test]
    fn no_only_selects_everything() {
        let entries = only_filter(None).unwrap();
        assert_eq!(entries.len(), REGISTRY.len());
    }

    #[test]
    fn known_ids_keep_registry_order() {
        let entries = only_filter(Some("fig10,fig2")).unwrap();
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
        let err = expect_err(only_filter(Some("fig99,fig2,bogus")));
        assert!(err.contains("unknown experiment id `fig99`"), "{err}");
        assert!(err.contains("unknown experiment id `bogus`"), "{err}");
        assert!(!err.contains("`fig2`"), "known id flagged: {err}");
        assert!(err.contains("known ids: "), "{err}");
    }

    #[test]
    fn single_unknown_id_message_is_stable() {
        let err = expect_err(only_filter(Some("fig99")));
        assert!(err.starts_with("unknown experiment id `fig99`"), "{err}");
    }
}

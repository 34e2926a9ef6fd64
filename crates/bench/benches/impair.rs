//! Cost of the link-impairment layer: the zero-rate fast path must be
//! free, and lossy runs pay only for the packets they actually drop,
//! retransmit and resequence.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use netsim::app::{App, AppEvent, Ctx};
use netsim::conn::TcpTuning;
use netsim::host::HostConfig;
use netsim::time::{Duration, SimTime};
use netsim::{ImpairmentSpec, LinkImpairment, SimConfig, Simulator};

struct Echo;
impl App for Echo {
    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx) {
        if let AppEvent::Data { conn, data } = ev {
            ctx.send(conn, data.to_vec());
            ctx.fin(conn);
        }
    }
}

struct Client;
impl App for Client {
    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx) {
        match ev {
            AppEvent::Connected { conn } => ctx.send(conn, vec![7u8; 400]),
            AppEvent::PeerFin { conn } => ctx.fin(conn),
            _ => {}
        }
    }
}

fn echo_world(config: SimConfig, n: u64) -> u64 {
    let mut sim = Simulator::new(config, 42);
    let server = sim.add_host(HostConfig::outside("s"));
    let client = sim.add_host(HostConfig::china("c"));
    let echo = sim.add_app(Box::new(Echo));
    sim.listen((server, 80), echo);
    let app = sim.add_app(Box::new(Client));
    for i in 0..n {
        sim.connect_at(
            SimTime::ZERO + Duration::from_millis(i * 10),
            app,
            client,
            (server, 80),
            TcpTuning::default(),
        );
    }
    sim.run();
    sim.stats.packets_sent
}

/// The no-op path against the pre-impairment baseline shape: both
/// configs run the same world; any gap is pure overhead of the
/// impairment hook in `transmit`.
fn noop_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("impair_noop");
    let n = 500u64;
    g.throughput(Throughput::Elements(n));
    g.bench_function("default_config", |b| {
        b.iter(|| echo_world(SimConfig::default(), n))
    });
    g.bench_function("explicit_zero_spec", |b| {
        b.iter(|| {
            echo_world(
                SimConfig {
                    impairment: ImpairmentSpec::lossy(0.0),
                    ..SimConfig::default()
                },
                n,
            )
        })
    });
    g.finish();
}

/// Lossy runs across the exp-impair sweep: cost scales with the loss
/// rate (extra RNG draws, retransmit events, sequencer buffering).
fn lossy_rates(c: &mut Criterion) {
    let mut g = c.benchmark_group("impair_lossy");
    let n = 500u64;
    g.throughput(Throughput::Elements(n));
    for loss in [0.001, 0.01, 0.05] {
        g.bench_with_input(BenchmarkId::new("echo_500", loss), &loss, |b, &loss| {
            b.iter(|| {
                echo_world(
                    SimConfig {
                        impairment: ImpairmentSpec::lossy(loss),
                        ..SimConfig::default()
                    },
                    n,
                )
            })
        });
    }
    g.finish();
}

/// The full mechanism mix: loss + duplication + reordering + jitter,
/// exercising retransmission and the per-direction sequencer together.
fn full_mix(c: &mut Criterion) {
    let mut g = c.benchmark_group("impair_mix");
    let n = 500u64;
    g.throughput(Throughput::Elements(n));
    let link = LinkImpairment {
        loss: 0.02,
        duplicate: 0.05,
        reorder: 0.05,
        reorder_extra: Duration::from_millis(30),
        jitter: Duration::from_millis(2),
    };
    g.bench_function("echo_500_all_mechanisms", |b| {
        b.iter(|| {
            echo_world(
                SimConfig {
                    impairment: ImpairmentSpec::symmetric(link),
                    ..SimConfig::default()
                },
                n,
            )
        })
    });
    g.finish();
}

criterion_group!(benches, noop_overhead, lossy_rates, full_mix);
criterion_main!(benches);

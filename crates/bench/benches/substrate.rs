//! netsim substrate throughput: how fast the simulated world turns.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use netsim::app::{App, AppEvent, Ctx};
use netsim::conn::TcpTuning;
use netsim::host::HostConfig;
use netsim::time::{Duration, SimTime};
use netsim::{SimConfig, Simulator};

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

fn connections(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrate");
    let n = 1_000u64;
    g.throughput(Throughput::Elements(n));
    g.bench_function("echo_connections_1k", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(SimConfig::default(), 42);
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
        })
    });
    g.finish();
}

fn full_pipeline(c: &mut Criterion) {
    use experiments::runs::{shadowsocks_run, SsRunConfig};
    let mut g = c.benchmark_group("pipeline");
    g.sample_size(10);
    g.bench_function("gfw_ss_world_300_conns", |b| {
        b.iter(|| {
            let cfg = SsRunConfig {
                connections: 300,
                conn_interval: Duration::from_secs(20),
                fleet_pool: 300,
                nr_min_gap: Duration::from_mins(4),
                seed: 9,
                ..Default::default()
            };
            shadowsocks_run(&cfg).probes.len()
        })
    });
    g.finish();
}

criterion_group!(benches, connections, full_pipeline);
criterion_main!(benches);

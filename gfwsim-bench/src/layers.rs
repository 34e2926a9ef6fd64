//! Unit costs: isolated calls into one layer's public functions, with
//! inputs shaped by the workload they model (queue depth, concurrency,
//! probe counts, payload sizes).
//!
//! Every kernel times several repetitions and returns the median, so one
//! scheduling hiccup does not move the unit. The seal/open throughput
//! kernels are `bench-report`'s (16 KiB chunks through the wire codec).

use experiments::runs::attractive_payload_len;
use gfw_core::classifier::Classifier;
use gfw_core::passive::PassiveDetector;
use gfw_core::probe::{build_payload, ProbeKind, Reaction};
use gfw_core::scheduler::{Scheduler, SchedulerConfig};
use netsim::app::AppId;
use netsim::conn::ConnId;
use netsim::eventq::EventQueue;
use netsim::flow::{FluidState, LinkId, Resched};
use netsim::packet::Ipv4;
use netsim::time::{Duration, SimTime};
use netsim::{LinkBandwidth, Region, SimConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shadowsocks::wire::{AeadDecryptor, AeadEncryptor, StreamDecryptor, StreamEncryptor};
use shadowsocks::{ClientSession, Profile, ServerConfig, ServerConn, TargetAddr};
use sscrypto::method::{Kind, Method};
use std::hint::black_box;
use std::time::Instant;
use trafficgen::profiles::Profile as TrafficProfile;
use trafficgen::MixSpec;

/// Repetitions per kernel; the median is reported.
const REPS: usize = 5;

/// The methods the wire rows cover, with their metric-name suffixes.
pub const METHODS: [Method; 3] = [
    Method::Aes256Cfb,
    Method::Aes256Gcm,
    Method::ChaCha20IetfPoly1305,
];

/// The server profiles the reaction rows cover, with the method each
/// runs and its metric-name suffix.
pub const PROFILES: [(&str, Profile, Method); 3] = [
    ("libev-old", Profile::LIBEV_OLD, Method::Aes256Cfb),
    ("libev-new", Profile::LIBEV_NEW, Method::Aes256Gcm),
    (
        "outline",
        Profile::OUTLINE_1_1_0,
        Method::ChaCha20IetfPoly1305,
    ),
];

/// The seven probe kinds of §3.2.
const PROBE_KINDS: [ProbeKind; 7] = [
    ProbeKind::R1,
    ProbeKind::R2,
    ProbeKind::R3,
    ProbeKind::R4,
    ProbeKind::R5,
    ProbeKind::Nr1,
    ProbeKind::Nr2,
];

/// Median over [`REPS`] runs of `f`, which returns `(seconds, ops)`, in
/// nanoseconds per op.
fn median_ns(mut f: impl FnMut() -> (f64, u64)) -> f64 {
    let mut v: Vec<f64> = (0..REPS)
        .map(|_| {
            let (secs, ops) = f();
            secs * 1e9 / ops.max(1) as f64
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v[REPS / 2]
}

fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_secs_f64(), r)
}

/// Deterministic pseudo-random payload.
pub fn payload(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = vec![0u8; len];
    rng.fill(&mut p[..]);
    p
}

/// A genuine Shadowsocks first packet for `method`, as the §3.1 client
/// sends it: target spec plus a constant-length request chosen to land
/// in the detector's preferred band.
pub fn ss_first_packet(method: Method, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = ServerConfig::new(method, "bench-password", Profile::LIBEV_OLD);
    let mut session = ClientSession::new(&config, TargetAddr::Ipv4([172, 0, 0, 9], 443), &mut rng);
    session.send(&payload(attractive_payload_len(method), seed ^ 0xB0D7))
}

/// `EventQueue` hold model: at a steady `depth`, pop the minimum and
/// push one event a cross-border hop later (the simulator's most
/// common delay). ns per push+pop.
pub fn eventq_hold_ns(depth: usize, ops: u64) -> f64 {
    let hop = SimConfig::default().cross_border_latency;
    let depth = depth.max(1);
    median_ns(|| {
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..depth as u64 {
            q.push(SimTime(i.wrapping_mul(0x9E37_79B9) % hop.as_nanos()), i);
        }
        let (secs, sum) = timed(|| {
            let mut sum = 0u64;
            for i in 0..ops {
                let (at, item) = q.pop().expect("hold model keeps the queue non-empty");
                sum = sum.wrapping_add(item);
                q.push(at + hop, i);
            }
            sum
        });
        black_box(sum);
        (secs, ops)
    })
}

/// Fluid-model cycle: with `concurrency` flows active on the border
/// link, complete the next finisher through `on_advance` and promote a
/// replacement; every `settle_every`-th promotion is demoted again
/// with `settle` (0 = never). ns per flow that leaves the model.
pub fn flow_cycle_ns(concurrency: usize, settle_every: u64, cycles: u64) -> f64 {
    let link = LinkId::between(Some(Region::China), Some(Region::Outside));
    let concurrency = concurrency.max(1);
    median_ns(|| {
        let mut fs = FluidState::new(LinkBandwidth::default());
        let mut next = 0u64;
        let mut armed: Resched = None;
        let mut now = SimTime::ZERO;
        let promote = |fs: &mut FluidState, now: SimTime, next: &mut u64| {
            let size = 65_536 + next.wrapping_mul(7_919) % 393_216;
            let conn = ConnId(*next);
            *next += 1;
            let r = fs.promote(now, conn, link, size, size, false, AppId(0));
            if settle_every > 0 && next.is_multiple_of(settle_every) {
                return fs.settle(now, conn).and_then(|(_, r)| r);
            }
            r
        };
        for _ in 0..concurrency {
            armed = promote(&mut fs, now, &mut next).or(armed);
        }
        let mut done = Vec::new();
        let (secs, left) = timed(|| {
            let mut left = 0u64;
            while left < cycles {
                let Some((_, epoch, at)) = armed else { break };
                now = at;
                done.clear();
                armed = fs.on_advance(now, link, epoch, &mut done);
                left += done.len() as u64;
                while fs.active() < concurrency {
                    let before = fs.active();
                    armed = promote(&mut fs, now, &mut next).or(armed);
                    if fs.active() == before {
                        left += 1;
                    }
                }
            }
            left
        });
        (secs, left)
    })
}

/// First payloads in the mix's proportions, with Shadowsocks first
/// packets making up `ss_share` of the pool.
pub fn first_payload_pool(ss_share: f64, size: usize, seed: u64) -> Vec<Vec<u8>> {
    let profiles = TrafficProfile::all();
    let weights = MixSpec::default().weights;
    let total: u32 = weights.iter().sum();
    let mut rng = StdRng::seed_from_u64(seed);
    let ss = ((size as f64 * ss_share).round() as usize).min(size);
    let mut pool: Vec<Vec<u8>> = (0..ss)
        .map(|i| ss_first_packet(Method::Aes256Cfb, seed ^ i as u64))
        .collect();
    while pool.len() < size {
        let mut pick = rng.gen_range(0..total);
        let idx = weights
            .iter()
            .position(|&w| {
                let hit = pick < w;
                pick = pick.saturating_sub(w);
                hit
            })
            .unwrap_or(0);
        pool.push(profiles[idx].first_payload(&mut rng));
    }
    pool
}

/// `PassiveDetector::features` over `pool`, ns per payload.
pub fn passive_features_ns(pool: &[Vec<u8>], rounds: u64) -> f64 {
    let det = PassiveDetector::default();
    median_ns(|| {
        let (secs, sink) = timed(|| {
            let mut sink = 0usize;
            for _ in 0..rounds {
                for p in pool {
                    sink = sink.wrapping_add(det.features(black_box(p)).len);
                }
            }
            sink
        });
        black_box(sink);
        (secs, rounds * pool.len() as u64)
    })
}

/// `Scheduler::on_stored_payload` for `stores` Shadowsocks payloads to
/// one server over a simulated day, then `pop_due` draining the orders
/// in time order. Returns `(ns per store, ns per popped order)`.
pub fn scheduler_ns(stores: u64) -> (f64, f64) {
    let server = (Ipv4::new(172, 0, 0, 1), 8388);
    let base = ss_first_packet(Method::Aes256Cfb, 7);
    let stores = stores.max(1);
    let gap = Duration::from_nanos(86_400_000_000_000 / stores);
    let mut pop_ns = Vec::with_capacity(REPS);
    let store_ns = median_ns(|| {
        let mut sched = Scheduler::new(SchedulerConfig::default());
        let mut rng = StdRng::seed_from_u64(11);
        let mut now = SimTime::ZERO;
        let (secs, ()) = timed(|| {
            for _ in 0..stores {
                sched.on_stored_payload(now, server, black_box(&base), &mut rng);
                now += gap;
            }
        });
        let (pop_secs, popped) = timed(|| {
            let mut popped = 0u64;
            while let Some(due) = sched.next_due() {
                popped += sched.pop_due(due).len() as u64;
            }
            popped
        });
        pop_ns.push(pop_secs * 1e9 / popped.max(1) as f64);
        (secs, stores)
    });
    pop_ns.sort_by(f64::total_cmp);
    (store_ns, pop_ns[pop_ns.len() / 2])
}

/// `Classifier::record` + `verdict` for `probes` reactions to one
/// server, as the controller calls them when each probe resolves; ns
/// per resolved probe. Reactions follow a stream-masked server (mostly
/// RST, some timeouts).
pub fn classifier_ns(probes: u64) -> f64 {
    let server = (Ipv4::new(172, 0, 0, 1), 8388);
    let probes = probes.max(1);
    median_ns(|| {
        let mut c = Classifier::new();
        let (secs, ()) = timed(|| {
            for i in 0..probes {
                let kind = PROBE_KINDS[(i % 7) as usize];
                let reaction = if i % 16 < 13 {
                    Reaction::Rst
                } else {
                    Reaction::Timeout
                };
                c.record(server, kind, 221, reaction);
                black_box(c.verdict(server));
            }
        });
        (secs, probes)
    })
}

/// One Shadowsocks session's crypto for `method`: a client session
/// seals one first packet of workload size and a fresh server-side
/// decryptor opens it. ns per session.
pub fn session_ns(method: Method, sessions: u64) -> f64 {
    let config = ServerConfig::new(method, "bench-password", Profile::LIBEV_OLD);
    let body = payload(attractive_payload_len(method), 3);
    let target = TargetAddr::Ipv4([172, 0, 0, 9], 443);
    median_ns(|| {
        let mut rng = StdRng::seed_from_u64(5);
        let (secs, sink) = timed(|| {
            let mut sink = 0usize;
            for _ in 0..sessions {
                let mut client = ClientSession::new(&config, target.clone(), &mut rng);
                let wire = client.send(black_box(&body));
                sink = sink.wrapping_add(match method.kind() {
                    Kind::Stream => StreamDecryptor::new(method, &config.master_key)
                        .decrypt(&wire)
                        .len(),
                    Kind::Aead => AeadDecryptor::new(method, &config.master_key)
                        .decrypt(&wire)
                        .expect("bench ciphertext is authentic")
                        .len(),
                });
            }
            sink
        });
        black_box(sink);
        (secs, sessions)
    })
}

/// Key and one full-size plaintext chunk for the throughput kernels.
fn codec_inputs(method: Method) -> (Vec<u8>, Vec<u8>) {
    let key = sscrypto::kdf::evp_bytes_to_key(b"bench-password", method.key_len());
    (key, payload(shadowsocks::wire::MAX_CHUNK, 0xC0FFEE))
}

fn ns_to_mb_s(ns_per_chunk: f64) -> f64 {
    shadowsocks::wire::MAX_CHUNK as f64 / ns_per_chunk * 1e3
}

/// Seal (encrypt, for stream methods) throughput of the wire codec over
/// 16 KiB chunks, MB/s of plaintext. One session per repetition, so key
/// setup is amortized as on a long connection.
pub fn seal_mb_s(method: Method, total_bytes: usize) -> f64 {
    let (key, plain) = codec_inputs(method);
    let chunks = (total_bytes / plain.len()).max(1) as u64;
    let iv = vec![0x42u8; method.iv_len()];
    ns_to_mb_s(median_ns(|| {
        let (secs, sink) = match method.kind() {
            Kind::Stream => {
                let mut enc = StreamEncryptor::new(method, &key, iv.clone());
                timed(|| {
                    (0..chunks)
                        .map(|_| enc.encrypt(&plain).len())
                        .sum::<usize>()
                })
            }
            Kind::Aead => {
                let mut enc = AeadEncryptor::new(method, &key, iv.clone());
                timed(|| (0..chunks).map(|_| enc.seal(&plain).len()).sum::<usize>())
            }
        };
        assert!(sink >= chunks as usize * plain.len());
        (secs, chunks)
    }))
}

/// Open (decrypt) throughput of the wire codec, MB/s of recovered
/// plaintext. The ciphertext is sealed once and replayed to a fresh
/// decryptor per repetition in 64 KiB slices.
pub fn open_mb_s(method: Method, total_bytes: usize) -> f64 {
    let (key, plain) = codec_inputs(method);
    let chunks = (total_bytes / plain.len()).max(1) as u64;
    let iv = vec![0x42u8; method.iv_len()];
    let ct: Vec<u8> = match method.kind() {
        Kind::Stream => {
            let mut enc = StreamEncryptor::new(method, &key, iv);
            (0..chunks).flat_map(|_| enc.encrypt(&plain)).collect()
        }
        Kind::Aead => {
            let mut enc = AeadEncryptor::new(method, &key, iv);
            (0..chunks).flat_map(|_| enc.seal(&plain)).collect()
        }
    };
    ns_to_mb_s(median_ns(|| {
        let (secs, got) = match method.kind() {
            Kind::Stream => {
                let mut dec = StreamDecryptor::new(method, &key);
                timed(|| {
                    ct.chunks(64 * 1024)
                        .map(|piece| dec.decrypt(piece).len())
                        .sum::<usize>()
                })
            }
            Kind::Aead => {
                let mut dec = AeadDecryptor::new(method, &key);
                timed(|| {
                    ct.chunks(64 * 1024)
                        .flat_map(|piece| {
                            dec.decrypt(piece).expect("bench ciphertext is authentic")
                        })
                        .map(|chunk| chunk.len())
                        .sum::<usize>()
                })
            }
        };
        assert_eq!(got, chunks as usize * plain.len());
        (secs, chunks)
    }))
}

/// A server engine's reaction to the seven probe kinds built from a
/// genuine first packet: `open_conn` + `on_data` + `close_conn` per
/// probe. ns per probe.
pub fn reaction_ns(profile: Profile, method: Method, rounds: u64) -> f64 {
    let base = ss_first_packet(method, 9);
    let mut rng = StdRng::seed_from_u64(13);
    let probes: Vec<Vec<u8>> = (0..rounds)
        .flat_map(|_| PROBE_KINDS.map(|k| build_payload(k, Some(&base), &mut rng)))
        .collect();
    let config = ServerConfig::new(method, "bench-password", profile);
    median_ns(|| {
        let mut server = ServerConn::new(config.clone(), 17);
        let (secs, sink) = timed(|| {
            let mut sink = 0usize;
            for p in &probes {
                let id = server.open_conn();
                sink = sink.wrapping_add(server.on_data(id, black_box(p)).len());
                server.close_conn(id);
            }
            sink
        });
        black_box(sink);
        (secs, probes.len() as u64)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_return_positive_costs() {
        assert!(eventq_hold_ns(64, 1_000) > 0.0);
        assert!(flow_cycle_ns(4, 0, 200) > 0.0);
        assert!(flow_cycle_ns(4, 3, 200) > 0.0);
        let pool = first_payload_pool(0.1, 50, 1);
        assert_eq!(pool.len(), 50);
        assert!(passive_features_ns(&pool, 2) > 0.0);
        let (store, pop) = scheduler_ns(50);
        assert!(store > 0.0 && pop > 0.0);
        assert!(classifier_ns(100) > 0.0);
        for m in METHODS {
            assert!(session_ns(m, 5) > 0.0, "{}", m.name());
            assert!(seal_mb_s(m, 1 << 16) > 0.0, "{}", m.name());
            assert!(open_mb_s(m, 1 << 16) > 0.0, "{}", m.name());
        }
        for (_, p, m) in PROFILES {
            assert!(reaction_ns(p, m, 2) > 0.0);
        }
    }

    #[test]
    fn ss_first_packets_land_in_the_band() {
        for m in METHODS {
            let len = ss_first_packet(m, 1).len();
            assert_eq!(len % 16, 2, "{}", m.name());
            assert!((384..=687).contains(&len), "{}: {len}", m.name());
        }
    }
}

//! The prober fleet (§3.3, §3.4).
//!
//! Thousands of source addresses in Chinese consumer ASes, but — per
//! the TCP-timestamp side channel of Fig 6 — steered by a small set of
//! centralized processes. The fleet model:
//!
//! * allocates source IPs from the Table 3 AS inventory, with a
//!   new-vs-reuse policy tuned so ~12,300 unique addresses emerge from
//!   ~52,000 probes and >75% of addresses send more than one probe
//!   (Fig 3);
//! * assigns each probe to one of seven processes with shared 250 Hz /
//!   1000 Hz timestamp clocks, one process dominating (Fig 6);
//! * draws source ports ~90% from the Linux ephemeral range, never
//!   below 1024 (Fig 5), and TTLs in 46–50 (§3.4);
//! * supports *epochs* with pool churn, reproducing the small overlap
//!   between prober sets collected years apart (Fig 4).

use analysis::asn::AS_TABLE;
use netsim::conn::TcpTuning;
use netsim::hash::HashSet;
use netsim::host::{HostConfig, IpIdPolicy, PortPolicy, TsClock};
use netsim::packet::Ipv4;
use netsim::sim::Simulator;
use netsim::time::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fleet configuration.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Maximum number of prober hosts to pre-register on the simulator.
    pub pool_size: usize,
    /// Probability that a probe allocates a fresh address instead of
    /// reusing an active one. 0.237 ≈ 12,300 unique / 51,837 probes.
    pub p_new_ip: f64,
    /// Fraction of source ports drawn from the Linux ephemeral range.
    pub linux_port_frac: f64,
    /// Process weights; index 6 is the 1000 Hz process.
    pub process_weights: [f64; 7],
    /// Connect-failure retry budget per probe: how many times the
    /// controller re-launches a probe (from a freshly assigned source)
    /// whose TCP connect failed before recording `ConnectFailed`. Zero
    /// — the calibrated default — leaves every existing experiment's
    /// schedule untouched; lossy-link experiments raise it so probing
    /// stays observable when SYNs can vanish.
    pub probe_retries: u32,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            pool_size: 16_000,
            p_new_ip: 0.237,
            linux_port_frac: 0.893,
            // One process dominates; the 1000 Hz process is the tiny
            // cluster of ~22 probes the paper observed.
            process_weights: [0.645, 0.10, 0.09, 0.07, 0.05, 0.044, 0.001],
            probe_retries: 0,
        }
    }
}

/// One centralized prober process.
#[derive(Clone, Copy, Debug)]
pub struct ProberProcess {
    /// The shared timestamp clock.
    pub clock: TsClock,
}

/// The prober fleet.
pub struct Fleet {
    config: FleetConfig,
    /// Pre-registered candidate addresses (AS-weighted), consumed in
    /// order as "fresh" allocations.
    pool: Vec<Ipv4>,
    next_fresh: usize,
    /// Addresses already used at least once.
    active: Vec<Ipv4>,
    /// The seven processes.
    pub processes: [ProberProcess; 7],
    rng: StdRng,
}

/// Everything needed to launch one probe connection.
#[derive(Clone, Copy, Debug)]
pub struct ProbeSource {
    /// Source address.
    pub ip: Ipv4,
    /// Source port.
    pub port: u16,
    /// Controlling process index.
    pub process: usize,
    /// TCP tuning to apply to the connection.
    pub tuning: TcpTuning,
}

impl Fleet {
    /// Build the fleet and pre-register its hosts on the simulator.
    pub fn install(sim: &mut Simulator, config: FleetConfig, seed: u64) -> Fleet {
        let mut rng = StdRng::seed_from_u64(seed);
        let total_weight: f64 = AS_TABLE.iter().map(|e| e.paper_count as f64).sum();
        let mut pool = Vec::with_capacity(config.pool_size);
        let mut used: HashSet<Ipv4> = HashSet::default();
        while pool.len() < config.pool_size {
            // Sample an AS proportionally to its Table 3 share, then a
            // random address inside one of its /16s.
            let mut x = rng.gen::<f64>() * total_weight;
            let mut entry = &AS_TABLE[0];
            for e in AS_TABLE {
                if x < e.paper_count as f64 {
                    entry = e;
                    break;
                }
                x -= e.paper_count as f64;
            }
            let prefix = entry.prefixes[rng.gen_range(0..entry.prefixes.len())];
            let addr = Ipv4::new(prefix[0], prefix[1], rng.gen(), rng.gen());
            if used.insert(addr) {
                pool.push(addr);
            }
        }
        for &addr in &pool {
            let mut cfg = HostConfig::china("prober");
            cfg.ip_id_policy = IpIdPolicy::Random;
            sim.add_host_with_addr(addr, cfg);
        }
        let processes = std::array::from_fn(|i| ProberProcess {
            clock: TsClock {
                offset: rng.gen(),
                rate_hz: if i == 6 { 1000 } else { 250 },
            },
        });
        Fleet {
            config,
            pool,
            next_fresh: 0,
            active: Vec::new(),
            processes,
            rng,
        }
    }

    /// Pick the source for one probe.
    pub fn assign(&mut self, _now: SimTime) -> ProbeSource {
        let ip = if self.active.is_empty()
            || (self.next_fresh < self.pool.len() && self.rng.gen_bool(self.config.p_new_ip))
        {
            let ip = self.pool[self.next_fresh.min(self.pool.len() - 1)];
            self.next_fresh = (self.next_fresh + 1).min(self.pool.len());
            self.active.push(ip);
            ip
        } else {
            self.active[self.rng.gen_range(0..self.active.len())]
        };
        let port = PortPolicy::Mixed {
            linux_frac: self.config.linux_port_frac,
        }
        .draw(&mut self.rng);
        let process = self.sample_process();
        let tuning = TcpTuning {
            src_port: Some(port),
            ts_clock: Some(self.processes[process].clock),
            ttl: Some(self.rng.gen_range(46..=50)),
            random_ip_id: true,
        };
        ProbeSource {
            ip,
            port,
            process,
            tuning,
        }
    }

    fn sample_process(&mut self) -> usize {
        let mut x: f64 = self.rng.gen();
        for (i, &w) in self.config.process_weights.iter().enumerate() {
            if x < w {
                return i;
            }
            x -= w;
        }
        0
    }

    /// Number of distinct addresses used so far.
    pub fn unique_ips(&self) -> usize {
        self.active.len()
    }

    /// Epoch churn: retire the current active set (keeping `retain` of
    /// it) — years pass, the pool turns over (Fig 4).
    pub fn churn_epoch(&mut self, retain: f64) {
        let keep = (self.active.len() as f64 * retain) as usize;
        // Keep a random subset.
        for i in (keep..self.active.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            self.active.swap(i, j);
            self.active.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::sim::SimConfig;

    fn fleet(pool: usize) -> (Simulator, Fleet) {
        let mut sim = Simulator::new(SimConfig::default(), 1);
        let f = Fleet::install(
            &mut sim,
            FleetConfig {
                pool_size: pool,
                ..Default::default()
            },
            99,
        );
        (sim, f)
    }

    #[test]
    fn pool_hosts_are_registered_and_in_china_ases() {
        let (sim, f) = fleet(500);
        for &ip in &f.pool {
            assert!(sim.has_host(ip));
            assert!(analysis::asn::lookup(ip).is_some(), "{ip} not attributable");
        }
    }

    #[test]
    fn unique_ip_ratio_matches_paper() {
        // 51,837 probes from 12,300 unique IPs ⇒ ratio ≈ 0.237.
        let (_sim, mut f) = fleet(16_000);
        let n = 51_837;
        for _ in 0..n {
            f.assign(SimTime::ZERO);
        }
        let ratio = f.unique_ips() as f64 / n as f64;
        assert!((ratio - 0.237).abs() < 0.02, "ratio {ratio}");
    }

    #[test]
    fn fig3_most_ips_probe_more_than_once() {
        let (_sim, mut f) = fleet(16_000);
        let mut counts: netsim::hash::HashMap<Ipv4, u32> = netsim::hash::HashMap::default();
        for _ in 0..51_837 {
            let s = f.assign(SimTime::ZERO);
            *counts.entry(s.ip).or_insert(0) += 1;
        }
        let multi = counts.values().filter(|&&c| c > 1).count() as f64;
        let frac = multi / counts.len() as f64;
        assert!(frac > 0.60, "fraction with >1 probe: {frac}");
        let max = counts.values().max().copied().unwrap();
        assert!((20..=80).contains(&max), "max probes per IP: {max}");
    }

    #[test]
    fn ports_match_fig5() {
        let (_sim, mut f) = fleet(200);
        let ports: Vec<u16> = (0..5_000).map(|_| f.assign(SimTime::ZERO).port).collect();
        assert!(ports.iter().all(|&p| p >= 1024), "no ports below 1024");
        let linux = ports
            .iter()
            .filter(|&&p| (32768..=60999).contains(&p))
            .count() as f64
            / ports.len() as f64;
        assert!((linux - 0.90).abs() < 0.05, "linux-range fraction {linux}");
    }

    #[test]
    fn ttl_range_matches_paper() {
        let (_sim, mut f) = fleet(100);
        for _ in 0..500 {
            let s = f.assign(SimTime::ZERO);
            let ttl = s.tuning.ttl.unwrap();
            assert!((46..=50).contains(&ttl), "ttl {ttl}");
        }
    }

    #[test]
    fn one_process_dominates_and_1000hz_is_rare() {
        let (_sim, mut f) = fleet(100);
        let mut counts = [0usize; 7];
        for _ in 0..20_000 {
            counts[f.assign(SimTime::ZERO).process] += 1;
        }
        assert!(counts[0] > 10_000, "dominant process: {counts:?}");
        assert!(counts[6] < 100, "1000 Hz process too common: {counts:?}");
        assert!(counts.iter().all(|&c| c > 0), "all processes appear");
        assert_eq!(f.processes[6].clock.rate_hz, 1000);
        assert_eq!(f.processes[0].clock.rate_hz, 250);
    }

    #[test]
    fn churn_reduces_active_set() {
        let (_sim, mut f) = fleet(2_000);
        for _ in 0..5_000 {
            f.assign(SimTime::ZERO);
        }
        let before = f.unique_ips();
        f.churn_epoch(0.05);
        let after = f.unique_ips();
        assert!(
            after < before / 10,
            "churn kept too many: {before} → {after}"
        );
    }
}

//! Host configuration: region, TTL, port allocation, IP ID generation,
//! TCP timestamp clocks and optional receive-window shaping.
//!
//! These knobs exist because the paper fingerprints exactly these
//! behaviours: prober source ports concentrated in the Linux ephemeral
//! range (Fig 5), TTLs in 46–50, patternless IP IDs, and shared TSval
//! clocks at 250/1000 Hz (Fig 6).

use crate::packet::Ipv4;
use crate::time::SimTime;
use rand::Rng;

/// Which side of the Great Firewall a host sits on. Packets whose two
/// endpoints are in different regions traverse the border (and therefore
/// every [`crate::tap::Tap`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Region {
    /// Inside China.
    China,
    /// Outside China.
    Outside,
}

/// TCP source-port allocation policy.
#[derive(Clone, Copy, Debug)]
pub enum PortPolicy {
    /// The default Linux ephemeral range 32768–60999, allocated
    /// uniformly.
    LinuxEphemeral,
    /// Uniform over 1024–65535.
    UniformHigh,
    /// Mixture: with probability `linux_frac`, LinuxEphemeral; otherwise
    /// UniformHigh. The paper observed ~90% of prober SYNs in the Linux
    /// range with a minimum of 1212 and maximum of 65237 (§3.4, Fig 5).
    Mixed {
        /// Fraction drawn from the Linux ephemeral range.
        linux_frac: f64,
    },
}

impl PortPolicy {
    /// Draw a source port.
    pub fn draw(&self, rng: &mut impl Rng) -> u16 {
        match self {
            PortPolicy::LinuxEphemeral => rng.gen_range(32768..=60999),
            PortPolicy::UniformHigh => rng.gen_range(1024..=65535),
            PortPolicy::Mixed { linux_frac } => {
                if rng.gen_bool(*linux_frac) {
                    rng.gen_range(32768..=60999)
                } else {
                    rng.gen_range(1024..=65535)
                }
            }
        }
    }
}

/// IP identification field policy.
#[derive(Clone, Copy, Debug)]
pub enum IpIdPolicy {
    /// Monotonic per-host counter (classic BSD-style).
    Sequential,
    /// Uniformly random per packet — what the paper observed from the
    /// probers ("no clear pattern", §3.4).
    Random,
}

/// A TCP timestamp clock: `TSval = offset + rate_hz * elapsed`.
///
/// Linux kernels tick TCP timestamps at their `CONFIG_HZ` — commonly
/// 250 Hz or 1000 Hz, the two slopes of the paper's Fig 6.
#[derive(Clone, Copy, Debug)]
pub struct TsClock {
    /// Counter value at simulation time zero.
    pub offset: u32,
    /// Ticks per second.
    pub rate_hz: u32,
}

impl TsClock {
    /// Evaluate the clock at `now`, wrapping at 2^32 (the wrap is visible
    /// in the paper's Fig 6).
    pub fn tsval(&self, now: SimTime) -> u32 {
        let ticks = (now.as_secs_f64() * self.rate_hz as f64) as u64;
        (self.offset as u64).wrapping_add(ticks) as u32
    }
}

/// Receive-window shaping, modelling brdgrd (§7.1): rewrite the window
/// announced to clients so their first flight arrives in small segments.
#[derive(Clone, Copy, Debug)]
pub struct WindowShaper {
    /// Announced window is drawn uniformly from this inclusive range.
    pub window_range: (u16, u16),
    /// Stop clamping once this many client payload bytes have arrived on
    /// a connection (brdgrd only interferes with the handshake).
    pub restore_after_bytes: usize,
}

/// Static configuration of a simulated host.
#[derive(Clone, Debug)]
pub struct HostConfig {
    /// Human-readable label for diagnostics.
    pub name: String,
    /// Side of the border.
    pub region: Region,
    /// Initial TTL on emitted packets (64 is the Linux default).
    pub initial_ttl: u8,
    /// Source-port allocation.
    pub port_policy: PortPolicy,
    /// IP ID generation.
    pub ip_id_policy: IpIdPolicy,
    /// TCP timestamp clock; `None` picks a random 1000 Hz clock at host
    /// creation.
    pub ts_clock: Option<TsClock>,
    /// Optional brdgrd-style receive-window shaping for inbound
    /// connections served by this host.
    pub window_shaper: Option<WindowShaper>,
}

impl HostConfig {
    /// A host inside China with Linux defaults.
    pub fn china(name: &str) -> HostConfig {
        HostConfig::with_region(name, Region::China)
    }

    /// A host outside China with Linux defaults.
    pub fn outside(name: &str) -> HostConfig {
        HostConfig::with_region(name, Region::Outside)
    }

    /// Linux-flavoured defaults in the given region.
    fn with_region(name: &str, region: Region) -> HostConfig {
        HostConfig {
            name: name.to_string(),
            region,
            initial_ttl: 64,
            port_policy: PortPolicy::LinuxEphemeral,
            ip_id_policy: IpIdPolicy::Sequential,
            ts_clock: None,
            window_shaper: None,
        }
    }
}

/// Runtime state of a host inside the simulator.
#[derive(Debug)]
pub struct Host {
    /// Immutable configuration.
    pub config: HostConfig,
    /// Address this host answers on.
    pub addr: Ipv4,
    /// Resolved timestamp clock.
    pub ts_clock: TsClock,
    /// Sequential IP ID counter state.
    pub ip_id_counter: u16,
}

impl Host {
    /// Build runtime state, resolving the timestamp clock randomly if
    /// unspecified.
    pub fn new(addr: Ipv4, config: HostConfig, rng: &mut impl Rng) -> Host {
        let ts_clock = config.ts_clock.unwrap_or(TsClock {
            offset: rng.gen(),
            rate_hz: 1000,
        });
        Host {
            config,
            addr,
            ts_clock,
            ip_id_counter: rng.gen(),
        }
    }

    /// Produce the IP ID for the next packet.
    pub fn next_ip_id(&mut self, rng: &mut impl Rng) -> u16 {
        match self.config.ip_id_policy {
            IpIdPolicy::Sequential => {
                self.ip_id_counter = self.ip_id_counter.wrapping_add(1);
                self.ip_id_counter
            }
            IpIdPolicy::Random => rng.gen(),
        }
    }
}

/// Dense arena of registered hosts.
///
/// Hosts are never removed, so each gets a stable `u32` index at
/// registration; connections cache the indices of their two endpoints
/// and per-packet paths resolve hosts with a plain `Vec` index. The
/// address map remains for the rare address-keyed operations
/// (registration, listener SYN handling, runtime shaper toggles).
#[derive(Debug, Default)]
pub struct HostArena {
    hosts: Vec<Host>,
    by_addr: crate::hash::HashMap<Ipv4, u32>,
}

impl HostArena {
    /// An empty arena.
    pub fn new() -> HostArena {
        HostArena::default()
    }

    /// Register `host`, returning its dense index. Re-registering an
    /// address replaces the host in place (same index).
    pub fn insert(&mut self, host: Host) -> u32 {
        if let Some(&idx) = self.by_addr.get(&host.addr) {
            self.hosts[idx as usize] = host;
            return idx;
        }
        let idx = self.hosts.len() as u32;
        self.by_addr.insert(host.addr, idx);
        self.hosts.push(host);
        idx
    }

    /// The dense index of the host at `addr`, if registered.
    pub fn index_of(&self, addr: Ipv4) -> Option<u32> {
        self.by_addr.get(&addr).copied()
    }

    /// The host at dense index `idx`.
    pub fn get(&self, idx: u32) -> &Host {
        &self.hosts[idx as usize]
    }

    /// Mutable host at dense index `idx`.
    pub fn get_mut(&mut self, idx: u32) -> &mut Host {
        &mut self.hosts[idx as usize]
    }

    /// The host at `addr` (address-keyed slow path).
    pub fn by_addr(&self, addr: Ipv4) -> Option<&Host> {
        self.index_of(addr).map(|i| self.get(i))
    }

    /// Mutable host at `addr` (address-keyed slow path).
    pub fn by_addr_mut(&mut self, addr: Ipv4) -> Option<&mut Host> {
        let idx = self.index_of(addr)?;
        Some(self.get_mut(idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ts_clock_slopes() {
        let c250 = TsClock {
            offset: 0,
            rate_hz: 250,
        };
        let c1000 = TsClock {
            offset: 0,
            rate_hz: 1000,
        };
        let t = SimTime::ZERO + Duration::from_secs(10);
        assert_eq!(c250.tsval(t), 2500);
        assert_eq!(c1000.tsval(t), 10000);
    }

    #[test]
    fn ts_clock_wraps() {
        // Fig 6 shows sequences wrapping at 2^32 - 1.
        let c = TsClock {
            offset: u32::MAX - 100,
            rate_hz: 250,
        };
        let t = SimTime::ZERO + Duration::from_secs(1);
        assert_eq!(c.tsval(t), 149); // (2^32 - 101 + 250) mod 2^32
    }

    #[test]
    fn port_policies_stay_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let p = PortPolicy::LinuxEphemeral.draw(&mut rng);
            assert!((32768..=60999).contains(&p));
            let q = PortPolicy::UniformHigh.draw(&mut rng);
            assert!(q >= 1024);
            let r = PortPolicy::Mixed { linux_frac: 0.9 }.draw(&mut rng);
            assert!(r >= 1024);
        }
    }

    #[test]
    fn mixed_policy_ratio_roughly_matches() {
        let mut rng = StdRng::seed_from_u64(7);
        let policy = PortPolicy::Mixed { linux_frac: 0.9 };
        let n = 10_000;
        let in_linux = (0..n)
            .filter(|_| (32768..=60999).contains(&policy.draw(&mut rng)))
            .count();
        let frac = in_linux as f64 / n as f64;
        // ~90% plus the ~44% of UniformHigh draws that also land in-range.
        assert!(frac > 0.88 && frac < 0.98, "frac {frac}");
    }

    #[test]
    fn sequential_ip_id_increments() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut h = Host::new(Ipv4::new(1, 2, 3, 4), HostConfig::outside("h"), &mut rng);
        let a = h.next_ip_id(&mut rng);
        let b = h.next_ip_id(&mut rng);
        assert_eq!(b, a.wrapping_add(1));
    }
}

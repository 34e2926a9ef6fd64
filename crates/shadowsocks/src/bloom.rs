//! Bloom-filter replay protection, modelled on Shadowsocks-libev's
//! "ping-pong" double-buffer design (§5.3 of the paper; upstream issue
//! shadowsocks-org#44).
//!
//! Two classic Bloom filters alternate: inserts go to the *current*
//! filter; when it reaches capacity, the *previous* filter is cleared
//! and the roles swap. Lookups consult both. This bounds memory while
//! remembering at least the most recent `capacity` nonces — and it is
//! precisely the design whose "forgets after enough traffic / forgets
//! across restarts" weakness the paper's delayed replays (up to 570
//! hours, §3.5) exploit.

use sscrypto::sha256::sha256;

/// A classic fixed-size Bloom filter with `k` derived hash functions.
///
/// The bit array is allocated **lazily**, on the first insert: an empty
/// filter contains nothing, so deferring the (hundreds-of-KB at libev
/// capacities) zeroed allocation is observationally identical. This
/// matters because the probe-reaction experiments construct a fresh
/// server — and with it a fresh replay filter — per probe; eager
/// allocation put two mmap/munmap round-trips on every probe of the
/// Fig 10 grid, dwarfing the actual crypto.
#[derive(Clone)]
pub struct Bloom {
    /// Empty until the first insert; `m.div_ceil(64)` words after.
    bits: Vec<u64>,
    m: usize,
    k: u32,
    items: usize,
}

impl Bloom {
    /// Create a filter sized for roughly `expected_items` at ~1e-6 false
    /// positive rate (libev uses 1e-6 for its server filters). Does not
    /// allocate the bit array; the first [`Bloom::insert`] does.
    pub fn new(expected_items: usize) -> Bloom {
        // m = -n ln p / (ln 2)^2, k = m/n ln 2, with p = 1e-6.
        let n = expected_items.max(1) as f64;
        let p: f64 = 1e-6;
        let m = (-n * p.ln() / (2f64.ln().powi(2))).ceil() as usize;
        let m = m.max(64);
        let k = ((m as f64 / n) * 2f64.ln()).round().max(1.0) as u32;
        Bloom {
            bits: Vec::with_capacity(0),
            m,
            k,
            items: 0,
        }
    }

    /// The two Kirsch–Mitzenmacher base hashes from one SHA-256.
    fn hashes(item: &[u8]) -> (u64, u64) {
        let d = sha256(item);
        let (words, _) = d.as_chunks::<8>();
        let h1 = u64::from_le_bytes(words[0]);
        let h2 = u64::from_le_bytes(words[1]) | 1;
        (h1, h2)
    }

    /// Insert an item, allocating the bit array on first use.
    pub fn insert(&mut self, item: &[u8]) {
        if self.bits.is_empty() {
            self.bits = vec![0u64; self.m.div_ceil(64)];
        }
        let (h1, h2) = Self::hashes(item);
        let m = self.m as u64;
        for i in 0..self.k as u64 {
            let idx = (h1.wrapping_add(i.wrapping_mul(h2)) % m) as usize;
            self.bits[idx / 64] |= 1 << (idx % 64);
        }
        self.items += 1;
    }

    /// Probabilistic membership test (no false negatives).
    pub fn contains(&self, item: &[u8]) -> bool {
        if self.bits.is_empty() {
            return false;
        }
        let (h1, h2) = Self::hashes(item);
        let m = self.m as u64;
        (0..self.k as u64).all(|i| {
            let idx = (h1.wrapping_add(i.wrapping_mul(h2)) % m) as usize;
            self.bits[idx / 64] & (1 << (idx % 64)) != 0
        })
    }

    /// Number of inserts since creation/clear.
    pub fn len(&self) -> usize {
        self.items
    }

    /// True if no items were inserted.
    pub fn is_empty(&self) -> bool {
        self.items == 0
    }

    /// Reset to empty. Releases the bit array; the next insert
    /// re-allocates, keeping long-idle cleared filters cheap.
    pub fn clear(&mut self) {
        self.bits = Vec::with_capacity(0);
        self.items = 0;
    }
}

/// Libev-style double-buffered ("ping-pong") replay filter.
pub struct PingPongBloom {
    current: Bloom,
    previous: Bloom,
    capacity: usize,
}

impl PingPongBloom {
    /// Create a filter that remembers at least the last `capacity`
    /// nonces (and at most 2×).
    pub fn new(capacity: usize) -> PingPongBloom {
        PingPongBloom {
            current: Bloom::new(capacity),
            previous: Bloom::new(capacity),
            capacity: capacity.max(1),
        }
    }

    /// Check membership and insert if fresh. Returns `true` if the item
    /// was already present (i.e. this is a replay).
    pub fn check_and_insert(&mut self, item: &[u8]) -> bool {
        if self.current.contains(item) || self.previous.contains(item) {
            return true;
        }
        if self.current.len() >= self.capacity {
            std::mem::swap(&mut self.current, &mut self.previous);
            self.current.clear();
        }
        self.current.insert(item);
        false
    }

    /// Simulate a server restart: all remembered nonces are lost. The
    /// asymmetry the paper's §7.2 calls out — the censor can replay
    /// after an arbitrary delay, but the server cannot remember forever.
    pub fn restart(&mut self) {
        self.current.clear();
        self.previous.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_membership() {
        let mut b = Bloom::new(1000);
        assert!(!b.contains(b"salt-1"));
        b.insert(b"salt-1");
        assert!(b.contains(b"salt-1"));
        assert!(!b.contains(b"salt-2"));
    }

    #[test]
    fn no_false_negatives() {
        let mut b = Bloom::new(10_000);
        let items: Vec<Vec<u8>> = (0u32..10_000).map(|i| i.to_le_bytes().to_vec()).collect();
        for it in &items {
            b.insert(it);
        }
        assert!(items.iter().all(|it| b.contains(it)));
    }

    #[test]
    fn false_positive_rate_is_low() {
        let mut b = Bloom::new(10_000);
        for i in 0u32..10_000 {
            b.insert(&i.to_le_bytes());
        }
        let fp = (10_000u32..110_000)
            .filter(|i| b.contains(&i.to_le_bytes()))
            .count();
        // Target 1e-6; allow two orders of slack for a 100k sample.
        assert!(fp <= 10, "false positives: {fp}");
    }

    #[test]
    fn pingpong_detects_replays() {
        let mut f = PingPongBloom::new(100);
        assert!(!f.check_and_insert(b"iv-abc"));
        assert!(f.check_and_insert(b"iv-abc"), "second sight is a replay");
    }

    #[test]
    fn pingpong_remembers_at_least_capacity() {
        let mut f = PingPongBloom::new(100);
        for i in 0u32..100 {
            assert!(!f.check_and_insert(&i.to_le_bytes()));
        }
        // All of the last 100 are still remembered.
        for i in 0u32..100 {
            assert!(f.check_and_insert(&i.to_le_bytes()), "{i}");
        }
    }

    #[test]
    fn pingpong_eventually_forgets() {
        // Insert far past 2× capacity; the earliest items must age out —
        // the weakness long-delayed replays exploit (§3.5/§7.2).
        let mut f = PingPongBloom::new(100);
        f.check_and_insert(b"the-original-iv");
        for i in 0u32..1000 {
            f.check_and_insert(&i.to_le_bytes());
        }
        assert!(
            !f.check_and_insert(b"the-original-iv-x"),
            "fresh item sanity"
        );
        // The original has been rotated out of both buffers.
        let mut f2 = PingPongBloom::new(100);
        f2.check_and_insert(b"the-original-iv");
        for i in 0u32..1000 {
            f2.check_and_insert(&i.to_le_bytes());
        }
        assert!(
            !f2.check_and_insert(b"the-original-iv"),
            "aged-out nonce is accepted again"
        );
    }

    #[test]
    fn restart_forgets_everything() {
        let mut f = PingPongBloom::new(100);
        f.check_and_insert(b"salt-before-restart");
        f.restart();
        assert!(
            !f.check_and_insert(b"salt-before-restart"),
            "replay across restart is not detected (§7.2)"
        );
    }
}

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
//!
//! Each filter keeps its set bits as a short sorted index list until
//! about 51 salts have arrived, and only then as a bit array (see
//! [`Bloom`]): a server that sees one salt, as every fresh server of
//! the probe-reaction grids does, never allocates the array.

use sscrypto::sha256::sha256;

/// Set-bit indices a [`Bloom`] keeps in its sparse form: 8 KiB, about
/// 51 inserts at libev's k = 20. The insert that takes the list past it
/// switches the filter to the dense bit array.
const SPARSE_MAX: usize = 1024;

/// A classic fixed-size Bloom filter with `k` derived hash functions.
///
/// The filter starts **sparse**: it keeps its set-bit indices in a
/// sorted `Vec<u64>`, and switches to the dense `m`-bit array only on
/// the insert that would push it past `SPARSE_MAX` (1,024) indices. Both
/// forms set the same bits, so [`Bloom::contains`] answers exactly as
/// the dense array would, false positives included. This matters
/// because the probe-reaction experiments construct a fresh server —
/// and with it a fresh replay filter — per probe, and insert one salt:
/// a dense array (~360 KB at libev's capacity) zeroed for 20 bits put
/// a `memset` on every probe of the Fig 10 grid. A long-lived server's
/// filter densifies within its first ~51 salts.
#[derive(Clone)]
pub struct Bloom {
    bits: Bits,
    m: u64,
    k: u32,
    items: usize,
}

/// The two forms of a [`Bloom`]'s bit set.
#[derive(Clone)]
enum Bits {
    /// Sorted, deduplicated indices of the set bits (at most
    /// [`SPARSE_MAX`]).
    Sparse(Vec<u64>),
    /// `m.div_ceil(64)` words.
    Dense(Vec<u64>),
}

/// The two Kirsch–Mitzenmacher base hashes of an item, from one SHA-256.
fn hashes(item: &[u8]) -> (u64, u64) {
    let d = sha256(item);
    let (words, _) = d.as_chunks::<8>();
    let h1 = u64::from_le_bytes(words[0]);
    let h2 = u64::from_le_bytes(words[1]) | 1;
    (h1, h2)
}

fn set_bit(words: &mut [u64], idx: u64) {
    words[(idx / 64) as usize] |= 1 << (idx % 64);
}

impl Bloom {
    /// Create a filter sized for roughly `expected_items` at ~1e-6 false
    /// positive rate (libev uses 1e-6 for its server filters). Allocates
    /// nothing until the first [`Bloom::insert`].
    pub fn new(expected_items: usize) -> Bloom {
        // m = -n ln p / (ln 2)^2, k = m/n ln 2, with p = 1e-6.
        let n = expected_items.max(1) as f64;
        let p: f64 = 1e-6;
        let m = (-n * p.ln() / (2f64.ln().powi(2))).ceil() as u64;
        let m = m.max(64);
        let k = ((m as f64 / n) * 2f64.ln()).round().max(1.0) as u32;
        Bloom {
            bits: Bits::Sparse(Vec::new()),
            m,
            k,
            items: 0,
        }
    }

    /// The `k` bit indices of an item with base hashes `(h1, h2)`.
    fn indices(&self, (h1, h2): (u64, u64)) -> impl Iterator<Item = u64> {
        let m = self.m;
        (0..u64::from(self.k)).map(move |i| h1.wrapping_add(i.wrapping_mul(h2)) % m)
    }

    /// Insert an item.
    pub fn insert(&mut self, item: &[u8]) {
        self.insert_hashed(hashes(item));
    }

    fn insert_hashed(&mut self, h: (u64, u64)) {
        let indices = self.indices(h);
        match &mut self.bits {
            Bits::Sparse(set) => {
                for idx in indices {
                    if let Err(pos) = set.binary_search(&idx) {
                        set.insert(pos, idx);
                    }
                }
                if set.len() > SPARSE_MAX {
                    let mut words = vec![0u64; self.m.div_ceil(64) as usize];
                    set.iter().for_each(|&idx| set_bit(&mut words, idx));
                    self.bits = Bits::Dense(words);
                }
            }
            Bits::Dense(words) => indices.for_each(|idx| set_bit(words, idx)),
        }
        self.items += 1;
    }

    /// Probabilistic membership test (no false negatives).
    pub fn contains(&self, item: &[u8]) -> bool {
        self.contains_hashed(hashes(item))
    }

    fn contains_hashed(&self, h: (u64, u64)) -> bool {
        let mut indices = self.indices(h);
        match &self.bits {
            Bits::Sparse(set) => indices.all(|idx| set.binary_search(&idx).is_ok()),
            Bits::Dense(words) => {
                indices.all(|idx| words[(idx / 64) as usize] & (1 << (idx % 64)) != 0)
            }
        }
    }

    /// Number of inserts since creation/clear.
    pub fn len(&self) -> usize {
        self.items
    }

    /// True if no items were inserted.
    pub fn is_empty(&self) -> bool {
        self.items == 0
    }

    /// Reset to the empty sparse filter. Releases the bit set, keeping
    /// long-idle cleared filters cheap.
    pub fn clear(&mut self) {
        self.bits = Bits::Sparse(Vec::new());
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
        // Both filters share `m` and `k`, so one digest serves all three
        // steps.
        let h = hashes(item);
        if self.current.contains_hashed(h) || self.previous.contains_hashed(h) {
            return true;
        }
        if self.current.len() >= self.capacity {
            std::mem::swap(&mut self.current, &mut self.previous);
            self.current.clear();
        }
        self.current.insert_hashed(h);
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
    use proptest::prelude::*;

    /// The dense-only filter this module shipped before the sparse
    /// form: the differential oracle for [`Bloom`] and [`PingPongBloom`].
    mod oracle {
        use super::hashes;

        pub struct DenseBloom {
            bits: Vec<u64>,
            m: u64,
            k: u32,
            pub items: usize,
        }

        impl DenseBloom {
            pub fn new(expected_items: usize) -> DenseBloom {
                let n = expected_items.max(1) as f64;
                let p: f64 = 1e-6;
                let m = (-n * p.ln() / (2f64.ln().powi(2))).ceil() as u64;
                let m = m.max(64);
                let k = ((m as f64 / n) * 2f64.ln()).round().max(1.0) as u32;
                DenseBloom {
                    bits: vec![0u64; m.div_ceil(64) as usize],
                    m,
                    k,
                    items: 0,
                }
            }

            pub fn insert(&mut self, item: &[u8]) {
                let (h1, h2) = hashes(item);
                for i in 0..u64::from(self.k) {
                    let idx = h1.wrapping_add(i.wrapping_mul(h2)) % self.m;
                    self.bits[(idx / 64) as usize] |= 1 << (idx % 64);
                }
                self.items += 1;
            }

            pub fn contains(&self, item: &[u8]) -> bool {
                let (h1, h2) = hashes(item);
                (0..u64::from(self.k)).all(|i| {
                    let idx = h1.wrapping_add(i.wrapping_mul(h2)) % self.m;
                    self.bits[(idx / 64) as usize] & (1 << (idx % 64)) != 0
                })
            }

            pub fn clear(&mut self) {
                self.bits.fill(0);
                self.items = 0;
            }
        }

        pub struct DensePingPong {
            current: DenseBloom,
            previous: DenseBloom,
            capacity: usize,
        }

        impl DensePingPong {
            pub fn new(capacity: usize) -> DensePingPong {
                DensePingPong {
                    current: DenseBloom::new(capacity),
                    previous: DenseBloom::new(capacity),
                    capacity: capacity.max(1),
                }
            }

            pub fn check_and_insert(&mut self, item: &[u8]) -> bool {
                if self.current.contains(item) || self.previous.contains(item) {
                    return true;
                }
                if self.current.items >= self.capacity {
                    std::mem::swap(&mut self.current, &mut self.previous);
                    self.current.clear();
                }
                self.current.insert(item);
                false
            }

            pub fn restart(&mut self) {
                self.current.clear();
                self.previous.clear();
            }
        }
    }

    fn is_sparse(b: &Bloom) -> bool {
        matches!(b.bits, Bits::Sparse(_))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `insert`/`contains`/`clear` answer as the dense oracle does
        /// at every step. Capacities from 1 to 120 give bit arrays on
        /// both sides of `SPARSE_MAX`; up to 600 inserts overfill the
        /// small ones, so false positives are compared too.
        #[test]
        fn bloom_matches_dense_oracle(
            capacity in 1usize..120,
            // An op in the low digit (base 20), an item id above it.
            ops in proptest::collection::vec(0u32..400 * 20, 1..600),
        ) {
            let mut sparse = Bloom::new(capacity);
            let mut dense = oracle::DenseBloom::new(capacity);
            for (step, &x) in ops.iter().enumerate() {
                let item = (x / 20).to_le_bytes();
                match x % 20 {
                    0 => {
                        sparse.clear();
                        dense.clear();
                    }
                    1..=9 => {
                        sparse.insert(&item);
                        dense.insert(&item);
                    }
                    _ => prop_assert_eq!(
                        sparse.contains(&item),
                        dense.contains(&item),
                        "step {}", step
                    ),
                }
                prop_assert_eq!(sparse.len(), dense.items);
            }
            // Sweep the whole item space: false positives agree too.
            for item in 0u32..400 {
                let item = item.to_le_bytes();
                prop_assert_eq!(sparse.contains(&item), dense.contains(&item));
            }
        }

        /// `check_and_insert`/`restart` answer as the dense oracle does
        /// at every step, across densification and ping-pong swaps.
        #[test]
        fn pingpong_matches_dense_oracle(
            capacity in 1usize..120,
            // A restart in one of 50 ops, an item id above the op digit.
            ops in proptest::collection::vec(0u32..600 * 50, 1..800),
        ) {
            let mut sparse = PingPongBloom::new(capacity);
            let mut dense = oracle::DensePingPong::new(capacity);
            for (step, &x) in ops.iter().enumerate() {
                if x % 50 == 0 {
                    sparse.restart();
                    dense.restart();
                } else {
                    let item = (x / 50).to_le_bytes();
                    prop_assert_eq!(
                        sparse.check_and_insert(&item),
                        dense.check_and_insert(&item),
                        "step {}", step
                    );
                }
            }
        }
    }

    #[test]
    fn single_insert_allocates_no_dense_array() {
        // One fresh server answering one probe: libev's capacity, one salt.
        let mut f = PingPongBloom::new(100_000);
        assert!(!f.check_and_insert(b"one-probe-salt"));
        assert!(is_sparse(&f.previous));
        assert!(matches!(&f.current.bits, Bits::Sparse(set) if set.capacity() <= SPARSE_MAX));
    }

    #[test]
    fn densifies_past_the_sparse_limit_and_clear_returns_to_sparse() {
        let mut b = Bloom::new(100_000);
        let mut n = 0u32;
        while is_sparse(&b) {
            b.insert(&n.to_le_bytes());
            n += 1;
        }
        // k = 20 bits per insert: about 51 inserts fit.
        assert!((40..=60).contains(&n), "densified after {n} inserts");
        assert!((0..n).all(|i| b.contains(&i.to_le_bytes())));
        b.clear();
        assert!(is_sparse(&b) && b.is_empty());
        assert!(!b.contains(&0u32.to_le_bytes()));
    }

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

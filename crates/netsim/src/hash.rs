//! The one map hasher of the simulation crates.
//!
//! Every `HashMap` and `HashSet` in the simulator, the GFW model, the
//! Shadowsocks engines and the experiments keys on small fixed-size
//! values: connection ids, IPv4 addresses, socket addresses, counters.
//! std's default, SipHash-1-3 under a `RandomState` key, guards against
//! hash flooding by an adversary that chooses keys. No key here comes
//! from such an adversary, and SipHash took 5–7% of every workload with
//! a GFW. The aliases below use [`FixedState`] instead: an unkeyed
//! multiply-and-fold hash of a few cycles per word.
//!
//! **Why it folds.** Each word written is XORed into the state, and the
//! state is multiplied by a 64-bit constant into the full 128-bit
//! product, whose two halves are XORed together. The fold is what keeps
//! it spread: hashbrown picks a bucket from the hash's low bits, and the
//! low half of a product depends only on the low bits of its operands.
//! A plain multiply (FxHash-style) therefore sends keys that differ only
//! in their high bits to the same bucket. The prober fleet's IPv4
//! addresses are such keys: an address is hashed as its four octets in
//! one little-endian word, so the host octet of a /24 lands in bits
//! 24–31. A plain-multiply prototype made `ss_20k`'s set-up 42% slower.
//! The high half of the product depends on every bit, and folding it
//! into the low half spreads those keys (`shared_low_bits_spread`).
//!
//! Iteration order is fixed by the hasher, but it is still hash order:
//! the determinism lint (`gfw-lint` rule R1) flags sim-reachable code
//! that iterates these maps exactly as it flags std's.

use std::hash::{BuildHasher, Hasher};

/// `HashMap` under [`FixedState`]. Build one with `HashMap::default()`
/// or `collect()`.
pub type HashMap<K, V> = std::collections::HashMap<K, V, FixedState>;

/// `HashSet` under [`FixedState`]. Build one with `HashSet::default()`
/// or `collect()`.
pub type HashSet<T> = std::collections::HashSet<T, FixedState>;

/// Initial state: the first 64 fraction bits of π.
const SEED: u64 = 0x243f_6a88_85a3_08d3;

/// The multiplier: odd, with bits spread across the word (PCG's 64-bit
/// LCG multiplier).
const MUL: u64 = 0x5851_f42d_4c95_7f2d;

/// Builds [`FoldHasher`]s. Unkeyed: every map hashes every key alike in
/// every process.
#[derive(Clone, Copy, Debug, Default)]
pub struct FixedState;

impl BuildHasher for FixedState {
    type Hasher = FoldHasher;

    fn build_hasher(&self) -> FoldHasher {
        FoldHasher { state: SEED }
    }
}

/// The multiply-and-fold hasher [`FixedState`] builds (see the module
/// docs).
#[derive(Clone, Copy, Debug)]
pub struct FoldHasher {
    state: u64,
}

/// The 64×64→128-bit product of `a` and `b`, its halves XORed together.
#[inline]
fn fold_mul(a: u64, b: u64) -> u64 {
    let p = u128::from(a).wrapping_mul(u128::from(b));
    (p as u64) ^ ((p >> 64) as u64)
}

impl Hasher for FoldHasher {
    /// Absorb `bytes` as little-endian words, the last one zero-padded.
    /// The slice's length is not mixed in here: `Hash` for slices and
    /// `str` writes a length prefix or a terminator itself.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let (words, tail) = bytes.as_chunks::<8>();
        for word in words {
            self.write_u64(u64::from_le_bytes(*word));
        }
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.state = fold_mul(self.state ^ i, MUL);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::ConnId;
    use crate::packet::Ipv4;
    use std::hash::Hash;

    fn hash_of(key: &impl Hash) -> u64 {
        FixedState.hash_one(key)
    }

    /// Distinct buckets of a `buckets`-slot table (a power of two, which
    /// hashbrown indexes by the low bits) that `hashes` occupy.
    fn buckets_used(hashes: &[u64], buckets: u64) -> usize {
        let mut used: Vec<u64> = hashes.iter().map(|h| h & (buckets - 1)).collect();
        used.sort_unstable();
        used.dedup();
        used.len()
    }

    /// 256 keys thrown at 256 buckets uniformly at random fill about
    /// 162 of them (256·(1 − 1/e)); 140 leaves room for chance.
    const SPREAD_FLOOR: usize = 140;

    #[test]
    fn shared_low_bits_spread() {
        // The host octet of one /24 is the only byte that varies; it
        // lands in bits 24–31 of the hashed word.
        let fleet: Vec<u64> = (0..=255u8)
            .map(|host| hash_of(&Ipv4([10, 0, 0, host])))
            .collect();
        // Socket addresses of one server on sequential ports, and
        // sequential connection ids.
        let ports: Vec<u64> = (0..256u16)
            .map(|i| hash_of(&(Ipv4([1, 2, 3, 4]), 40_000 + i)))
            .collect();
        let conns: Vec<u64> = (0..256u64).map(|i| hash_of(&ConnId(i))).collect();
        for (name, hashes) in [("fleet", &fleet), ("ports", &ports), ("conns", &conns)] {
            let used = buckets_used(hashes, 256);
            assert!(used >= SPREAD_FLOOR, "{name}: {used} of 256 buckets");
            // hashbrown's 7-bit control tag comes from the top bits.
            let tags = buckets_used(&hashes.iter().map(|h| h >> 57).collect::<Vec<_>>(), 128);
            assert!(tags >= 95, "{name}: {tags} of 128 tags");
        }
    }

    #[test]
    fn plain_multiply_would_collide() {
        // The control for `shared_low_bits_spread`: without the fold,
        // the low half of the product cannot see bits 24–31, so the
        // whole /24 shares one bucket of a 256-slot table.
        let plain: Vec<u64> = (0..=255u8)
            .map(|host| {
                let word = u64::from(u32::from_le_bytes([10, 0, 0, host]));
                (SEED ^ word).wrapping_mul(MUL)
            })
            .collect();
        assert_eq!(buckets_used(&plain, 256), 1);
    }

    #[test]
    fn hashing_is_fixed_and_maps_work() {
        assert_eq!(hash_of(&ConnId(7)), hash_of(&ConnId(7)));
        assert_ne!(hash_of(&ConnId(7)), hash_of(&ConnId(8)));
        // A string and a longer one sharing its prefix differ: the
        // terminator `str` writes is mixed in.
        assert_ne!(hash_of(&"abcdefgh"), hash_of(&"abcdefgh\0"));
        let mut m: HashMap<Ipv4, u32> = HashMap::default();
        for host in 0..=255u8 {
            m.insert(Ipv4([10, 0, 0, host]), u32::from(host));
        }
        assert_eq!(m.len(), 256);
        assert_eq!(m.get(&Ipv4([10, 0, 0, 77])), Some(&77));
        let s: HashSet<ConnId> = (0..1000).map(ConnId).collect();
        assert!(s.contains(&ConnId(999)) && !s.contains(&ConnId(1000)));
    }
}

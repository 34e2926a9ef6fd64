//! Set-overlap analysis (Fig 4).
//!
//! The paper intersects its 12,300 prober addresses with two earlier
//! datasets (Ensafi et al. 2015, ~22,000 addresses; Dunna et al. 2018,
//! 934 addresses) and finds only slight overlap — evidence of high
//! churn in the prober pool.

use netsim::hash::HashSet;
use std::hash::Hash;

/// Pairwise and triple intersection sizes of three sets, i.e. the seven
/// regions of a three-set Venn diagram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Venn3 {
    /// |A| only (excluding any intersection).
    pub only_a: usize,
    /// |B| only.
    pub only_b: usize,
    /// |C| only.
    pub only_c: usize,
    /// |A∩B| excluding C.
    pub ab: usize,
    /// |A∩C| excluding B.
    pub ac: usize,
    /// |B∩C| excluding A.
    pub bc: usize,
    /// |A∩B∩C|.
    pub abc: usize,
}

impl Venn3 {
    /// Total size of A.
    pub fn a_total(&self) -> usize {
        self.only_a + self.ab + self.ac + self.abc
    }

    /// Total size of B.
    pub fn b_total(&self) -> usize {
        self.only_b + self.ab + self.bc + self.abc
    }

    /// Total size of C.
    pub fn c_total(&self) -> usize {
        self.only_c + self.ac + self.bc + self.abc
    }
}

/// Compute the Venn regions of three sets.
pub fn venn3<T: Eq + Hash + Clone>(a: &HashSet<T>, b: &HashSet<T>, c: &HashSet<T>) -> Venn3 {
    let mut v = Venn3 {
        only_a: 0,
        only_b: 0,
        only_c: 0,
        ab: 0,
        ac: 0,
        bc: 0,
        abc: 0,
    };
    let universe: HashSet<&T> = a.iter().chain(b.iter()).chain(c.iter()).collect();
    for x in universe {
        match (a.contains(x), b.contains(x), c.contains(x)) {
            (true, false, false) => v.only_a += 1,
            (false, true, false) => v.only_b += 1,
            (false, false, true) => v.only_c += 1,
            (true, true, false) => v.ab += 1,
            (true, false, true) => v.ac += 1,
            (false, true, true) => v.bc += 1,
            (true, true, true) => v.abc += 1,
            (false, false, false) => unreachable!(),
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(items: &[u32]) -> HashSet<u32> {
        items.iter().copied().collect()
    }

    #[test]
    fn venn_of_disjoint_sets() {
        let v = venn3(&set(&[1, 2]), &set(&[3]), &set(&[4, 5, 6]));
        assert_eq!(
            v,
            Venn3 {
                only_a: 2,
                only_b: 1,
                only_c: 3,
                ab: 0,
                ac: 0,
                bc: 0,
                abc: 0
            }
        );
    }

    #[test]
    fn venn_with_overlaps() {
        // A = {1,2,3,7}, B = {2,3,4,7}, C = {3,5,7}
        let v = venn3(&set(&[1, 2, 3, 7]), &set(&[2, 3, 4, 7]), &set(&[3, 5, 7]));
        assert_eq!(v.only_a, 1); // {1}
        assert_eq!(v.only_b, 1); // {4}
        assert_eq!(v.only_c, 1); // {5}
        assert_eq!(v.ab, 1); // {2}
        assert_eq!(v.ac, 0);
        assert_eq!(v.bc, 0);
        assert_eq!(v.abc, 2); // {3,7}
        assert_eq!(v.a_total(), 4);
        assert_eq!(v.b_total(), 4);
        assert_eq!(v.c_total(), 3);
    }

    #[test]
    fn fig4_shape_small_overlap() {
        // The paper's shape: three large sets with intersections that
        // are tiny relative to set sizes.
        let a: HashSet<u32> = (0..22_000).collect();
        let b: HashSet<u32> = (21_900..22_834).collect(); // 934, overlap 100
        let c: HashSet<u32> = (21_950..34_250).collect(); // 12,300
        let v = venn3(&a, &b, &c);
        assert_eq!(v.a_total(), 22_000);
        assert_eq!(v.b_total(), 934);
        assert_eq!(v.c_total(), 12_300);
        let a_c_overlap = v.ac + v.abc;
        assert!(a_c_overlap < 100, "{a_c_overlap}");
    }
}

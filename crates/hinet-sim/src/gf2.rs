//! GF(2) linear algebra for random linear network coding.
//!
//! Coded packets are coefficient vectors over GF(2) indexed by token; a
//! node's knowledge is the row space of the vectors it has received. The
//! basis is kept in **reduced row-echelon form** so rank queries, decoded
//! token extraction and random recombination are all cheap.
//!
//! It lives in the simulator because coded packets are an ordinary
//! [`crate::protocol::Payload::Coded`] payload: the engine carries and
//! bills them like any other message (see `hinet_core::netcode`).

use hinet_rt::rng::Rng;

/// A coefficient vector over GF(2), `k` bits packed into `u64` words.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Gf2Vec {
    bits: Vec<u64>,
    k: usize,
}

impl Gf2Vec {
    /// The zero vector of length `k`.
    pub fn zero(k: usize) -> Self {
        Gf2Vec {
            bits: vec![0; k.div_ceil(64)],
            k,
        }
    }

    /// The unit vector `e_i`.
    ///
    /// # Panics
    /// Panics if `i ≥ k`.
    pub fn unit(k: usize, i: usize) -> Self {
        assert!(i < k, "unit index {i} out of range for k={k}");
        let mut v = Self::zero(k);
        v.set(i);
        v
    }

    /// Vector length `k`.
    pub fn len(&self) -> usize {
        self.k
    }

    /// Whether every coefficient is zero.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Coefficient `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        self.bits[i / 64] & (1 << (i % 64)) != 0
    }

    /// Set coefficient `i` to 1.
    #[inline]
    pub fn set(&mut self, i: usize) {
        self.bits[i / 64] |= 1 << (i % 64);
    }

    /// In-place XOR (GF(2) addition).
    pub fn add_assign(&mut self, other: &Gf2Vec) {
        debug_assert_eq!(self.k, other.k);
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a ^= b;
        }
    }

    /// Index of the lowest set bit (the pivot under our ordering), or
    /// `None` for the zero vector.
    pub fn leading(&self) -> Option<usize> {
        for (w, &word) in self.bits.iter().enumerate() {
            if word != 0 {
                let idx = w * 64 + word.trailing_zeros() as usize;
                return (idx < self.k).then_some(idx);
            }
        }
        None
    }

    /// Number of set coefficients.
    fn weight(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// A GF(2) row basis in reduced row-echelon form.
///
/// Invariants: rows are sorted by pivot; each pivot column is zero in all
/// other rows (full reduction), so a decoded token is exactly a row of
/// weight 1.
#[derive(Clone, Debug, Default)]
pub struct Gf2Basis {
    k: usize,
    rows: Vec<Gf2Vec>,
}

impl Gf2Basis {
    /// Empty basis over `k` tokens.
    pub fn new(k: usize) -> Self {
        Gf2Basis {
            k,
            rows: Vec::new(),
        }
    }

    /// Current rank.
    pub fn rank(&self) -> usize {
        self.rows.len()
    }

    /// Insert a vector; returns `true` iff it was linearly independent of
    /// the current basis (rank increased).
    pub fn insert(&mut self, mut v: Gf2Vec) -> bool {
        debug_assert_eq!(v.len(), self.k);
        // Forward-reduce by existing pivots.
        for row in &self.rows {
            let p = row.leading().expect("basis rows are nonzero");
            if v.get(p) {
                v.add_assign(row);
            }
        }
        let Some(pivot) = v.leading() else {
            return false;
        };
        // Back-reduce existing rows by the new pivot.
        for row in &mut self.rows {
            if row.get(pivot) {
                row.add_assign(&v);
            }
        }
        let pos = self
            .rows
            .binary_search_by_key(&pivot, |r| r.leading().expect("nonzero"))
            .unwrap_err();
        self.rows.insert(pos, v);
        true
    }

    /// Token indices currently decodable (unit rows of the RREF).
    pub fn decoded(&self) -> Vec<usize> {
        self.rows
            .iter()
            .filter(|r| r.weight() == 1)
            .map(|r| r.leading().expect("nonzero"))
            .collect()
    }

    /// A uniformly random nonzero combination of the basis rows, or `None`
    /// if the basis is empty. This is the packet an RLNC node transmits.
    pub fn random_combination(&self, rng: &mut impl Rng) -> Option<Gf2Vec> {
        if self.rows.is_empty() {
            return None;
        }
        loop {
            let mut out = Gf2Vec::zero(self.k);
            let mut any = false;
            for row in &self.rows {
                if rng.random_bool(0.5) {
                    out.add_assign(row);
                    any = true;
                }
            }
            if any && !out.is_empty() {
                return Some(out);
            }
            // All-coins-tails (probability 2^-rank): redraw.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hinet_rt::rng::Xoshiro256StarStar;

    fn vec_of(k: usize, idxs: &[usize]) -> Gf2Vec {
        let mut v = Gf2Vec::zero(k);
        for &i in idxs {
            v.set(i);
        }
        v
    }

    #[test]
    fn unit_vectors_and_bits() {
        let v = Gf2Vec::unit(70, 65);
        assert!(v.get(65));
        assert!(!v.get(64));
        assert_eq!(v.leading(), Some(65));
        assert_eq!(v.weight(), 1);
        assert!(Gf2Vec::zero(70).is_empty());
        assert_eq!(Gf2Vec::zero(70).leading(), None);
    }

    #[test]
    fn xor_addition() {
        let mut a = vec_of(8, &[0, 3, 5]);
        a.add_assign(&vec_of(8, &[3, 4]));
        assert_eq!(a, vec_of(8, &[0, 4, 5]));
    }

    #[test]
    fn rank_grows_only_on_independence() {
        let mut b = Gf2Basis::new(4);
        assert!(b.insert(vec_of(4, &[0, 1])));
        assert!(b.insert(vec_of(4, &[1, 2])));
        assert!(!b.insert(vec_of(4, &[0, 2])), "sum of the first two");
        assert_eq!(b.rank(), 2);
        assert!(b.insert(vec_of(4, &[3])));
        assert_eq!(b.rank(), 3);
        assert!(b.insert(vec_of(4, &[2])));
        assert_eq!(b.rank(), 4, "full rank");
        assert!(!b.insert(vec_of(4, &[0, 1, 2, 3])), "full space now");
    }

    #[test]
    fn zero_vector_never_inserts() {
        let mut b = Gf2Basis::new(5);
        assert!(!b.insert(Gf2Vec::zero(5)));
        assert_eq!(b.rank(), 0);
    }

    #[test]
    fn decoding_appears_with_rref() {
        let mut b = Gf2Basis::new(3);
        b.insert(vec_of(3, &[0, 1]));
        b.insert(vec_of(3, &[1, 2]));
        assert_eq!(
            b.decoded(),
            Vec::<usize>::new(),
            "rank 2 of 3: nothing isolated"
        );
        b.insert(vec_of(3, &[2]));
        let mut d = b.decoded();
        d.sort_unstable();
        assert_eq!(d, vec![0, 1, 2], "full rank decodes everything");
    }

    #[test]
    fn partial_decoding_of_disjoint_blocks() {
        // e0 known directly; {1,2} only entangled.
        let mut b = Gf2Basis::new(3);
        b.insert(vec_of(3, &[0]));
        b.insert(vec_of(3, &[1, 2]));
        assert_eq!(b.decoded(), vec![0]);
    }

    #[test]
    fn random_combination_stays_in_span() {
        let mut b = Gf2Basis::new(6);
        b.insert(vec_of(6, &[0, 2]));
        b.insert(vec_of(6, &[3]));
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        for _ in 0..50 {
            let c = b.random_combination(&mut rng).unwrap();
            // Inserting a span element never raises the rank.
            let mut probe = b.clone();
            assert!(!probe.insert(c));
        }
        assert!(Gf2Basis::new(4).random_combination(&mut rng).is_none());
    }

    #[test]
    fn wide_vectors_cross_word_boundaries() {
        let k = 200;
        let mut b = Gf2Basis::new(k);
        for i in (0..k).rev() {
            assert!(b.insert(Gf2Vec::unit(k, i)));
        }
        assert_eq!(b.rank(), k);
        assert_eq!(b.decoded().len(), k);
    }
}

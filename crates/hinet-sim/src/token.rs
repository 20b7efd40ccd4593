//! Tokens of the k-token dissemination problem.
//!
//! The paper: "each token is stamped with a unique id, and the id is
//! comparable with others" — both algorithms pick max/min over ids, so the
//! total order is load-bearing. Token ids are dense (`0..k` by
//! construction of [`universe`] and the assignment helpers), which makes a
//! **word-packed bitset** the natural set representation: membership is a
//! bit test, unions are word-wide `OR`s, and the min/max selections the
//! algorithms run every round compile down to
//! `trailing_zeros`/`leading_zeros` over a handful of `u64` words instead
//! of ordered-tree walks. At the million-node scale this is the difference
//! between seconds and hours: a `k = 10^4` set is 157 words (1250 bytes),
//! scanned at memory bandwidth.

use std::fmt;

/// Unique, totally ordered token identifier.
///
/// Ids are assumed *dense*: sets store a bit per id up to the largest
/// inserted one, so memory is proportional to `max_id`, not to the number
/// of elements. Every assignment helper in this module hands out ids from
/// `0..k`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TokenId(pub u64);

impl fmt::Debug for TokenId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for TokenId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// An ordered set of tokens — the `TA`/`TS`/`TR` sets of the algorithms —
/// packed as a fixed-width bitset (`Vec<u64>`, one bit per id).
///
/// The surface mirrors the ordered-set operations the algorithms need:
/// ascending iteration, subset tests, and the word-parallel selections
/// [`max_not_in`]/[`min_not_in`]/[`max_not_in_either`]. Word storage grows
/// on demand; two sets with the same elements compare equal regardless of
/// their capacities.
#[derive(Clone, Default)]
pub struct TokenSet {
    words: Vec<u64>,
    len: usize,
}

impl TokenSet {
    /// The empty set.
    pub fn new() -> Self {
        TokenSet::default()
    }

    /// The empty set with room for ids `0..k` pre-allocated, so hot loops
    /// never reallocate mid-run.
    pub fn with_capacity(k: usize) -> Self {
        TokenSet {
            words: vec![0; k.div_ceil(64)],
            len: 0,
        }
    }

    /// Number of tokens in the set. O(1): maintained incrementally.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Remove every token, keeping the allocated capacity.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// Word `i` of the bitset, zero beyond the allocated prefix.
    #[inline]
    fn word(&self, i: usize) -> u64 {
        self.words.get(i).copied().unwrap_or(0)
    }

    /// The raw bitset words, for word-parallel diffing against another
    /// set without allocating.
    #[inline]
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Insert `t`; returns `true` iff it was not already present.
    pub fn insert(&mut self, t: TokenId) -> bool {
        let (w, b) = (t.0 as usize / 64, t.0 % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let mask = 1u64 << b;
        let fresh = self.words[w] & mask == 0;
        self.words[w] |= mask;
        self.len += usize::from(fresh);
        fresh
    }

    /// Whether `t` is in the set.
    #[inline]
    pub fn contains(&self, t: &TokenId) -> bool {
        self.word(t.0 as usize / 64) & (1u64 << (t.0 % 64)) != 0
    }

    /// In-place union: `self ∪= other`, one `OR` per word. This is the
    /// whole-set receive path of Algorithm 2 and the flooding baselines.
    pub fn union_with(&mut self, other: &TokenSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        let mut added = 0usize;
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            added += (b & !*a).count_ones() as usize;
            *a |= b;
        }
        self.len += added;
    }

    /// Whether `self ⊆ other`, word-parallel.
    pub fn is_subset(&self, other: &TokenSet) -> bool {
        self.words
            .iter()
            .enumerate()
            .all(|(i, &w)| w & !other.word(i) == 0)
    }

    /// Ascending iterator over the member ids.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            words: &self.words,
            word: 0,
            bits: self.words.first().copied().unwrap_or(0),
        }
    }

    /// The smallest member, or `None` if empty.
    pub fn min(&self) -> Option<TokenId> {
        self.words.iter().enumerate().find_map(|(i, &w)| {
            (w != 0).then(|| TokenId((i * 64) as u64 + u64::from(w.trailing_zeros())))
        })
    }

    /// The largest member, or `None` if empty.
    pub fn max(&self) -> Option<TokenId> {
        self.words.iter().enumerate().rev().find_map(|(i, &w)| {
            (w != 0).then(|| TokenId((i * 64 + 63) as u64 - u64::from(w.leading_zeros())))
        })
    }
}

impl PartialEq for TokenSet {
    fn eq(&self, other: &Self) -> bool {
        // Capacities may differ (e.g. after `clear`): compare the common
        // prefix and require the longer tail to be all-zero.
        let common = self.words.len().min(other.words.len());
        self.words[..common] == other.words[..common]
            && self.words[common..].iter().all(|&w| w == 0)
            && other.words[common..].iter().all(|&w| w == 0)
    }
}

impl Eq for TokenSet {}

impl fmt::Debug for TokenSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl Extend<TokenId> for TokenSet {
    fn extend<I: IntoIterator<Item = TokenId>>(&mut self, iter: I) {
        for t in iter {
            self.insert(t);
        }
    }
}

impl FromIterator<TokenId> for TokenSet {
    fn from_iter<I: IntoIterator<Item = TokenId>>(iter: I) -> Self {
        let mut s = TokenSet::new();
        s.extend(iter);
        s
    }
}

impl<'a> IntoIterator for &'a TokenSet {
    type Item = TokenId;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Ascending iterator over a [`TokenSet`] (see [`TokenSet::iter`]).
#[derive(Clone)]
pub struct Iter<'a> {
    words: &'a [u64],
    word: usize,
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = TokenId;

    fn next(&mut self) -> Option<TokenId> {
        while self.bits == 0 {
            self.word += 1;
            if self.word >= self.words.len() {
                return None;
            }
            self.bits = self.words[self.word];
        }
        let b = self.bits.trailing_zeros();
        self.bits &= self.bits - 1; // clear the lowest set bit
        Some(TokenId((self.word * 64) as u64 + u64::from(b)))
    }
}

/// The token with the largest id in `a \ b`, or `None` if `a ⊆ b`.
///
/// This is the member-side selection of Algorithm 1: "choose t, the token
/// with the maximum id among these unknown by cluster head". One
/// `AND-NOT` + `leading_zeros` per word, scanned from the top.
pub fn max_not_in(a: &TokenSet, b: &TokenSet) -> Option<TokenId> {
    for i in (0..a.words.len()).rev() {
        let w = a.words[i] & !b.word(i);
        if w != 0 {
            return Some(TokenId((i * 64 + 63) as u64 - u64::from(w.leading_zeros())));
        }
    }
    None
}

/// The token with the smallest id in `a \ b`, or `None` if `a ⊆ b`.
///
/// This is the head/gateway-side selection of Algorithm 1 (and the KLO
/// baseline): "choose token t with the minimum id that has not \[been\] sent
/// in \[the\] current phase".
pub fn min_not_in(a: &TokenSet, b: &TokenSet) -> Option<TokenId> {
    for i in 0..a.words.len() {
        let w = a.words[i] & !b.word(i);
        if w != 0 {
            return Some(TokenId((i * 64) as u64 + u64::from(w.trailing_zeros())));
        }
    }
    None
}

/// The token with the largest id in `a \ (b ∪ c)` — the member selection of
/// Algorithm 1 uses `TA \ (TS ∪ TR)` without materialising the union.
pub fn max_not_in_either(a: &TokenSet, b: &TokenSet, c: &TokenSet) -> Option<TokenId> {
    for i in (0..a.words.len()).rev() {
        let w = a.words[i] & !(b.word(i) | c.word(i));
        if w != 0 {
            return Some(TokenId((i * 64 + 63) as u64 - u64::from(w.leading_zeros())));
        }
    }
    None
}

/// Build a token universe `{0, …, k−1}` — all-ones words with a masked
/// tail, O(k/64).
pub fn universe(k: usize) -> TokenSet {
    let mut words = vec![u64::MAX; k / 64];
    if !k.is_multiple_of(64) {
        words.push((1u64 << (k % 64)) - 1);
    }
    TokenSet { words, len: k }
}

/// Distribute `k` tokens over `n` nodes round-robin: token `i` starts at
/// node `i mod n`. Returns the per-node initial token lists.
pub fn round_robin_assignment(n: usize, k: usize) -> Vec<Vec<TokenId>> {
    let mut per_node = vec![Vec::new(); n];
    for i in 0..k {
        per_node[i % n].push(TokenId(i as u64));
    }
    per_node
}

/// Concentrate all `k` tokens at one node (single-source dissemination,
/// the 1-token generalisation).
pub fn single_source_assignment(n: usize, k: usize, source: usize) -> Vec<Vec<TokenId>> {
    assert!(source < n);
    let mut per_node = vec![Vec::new(); n];
    per_node[source] = (0..k as u64).map(TokenId).collect();
    per_node
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u64]) -> TokenSet {
        ids.iter().copied().map(TokenId).collect()
    }

    #[test]
    fn max_min_not_in() {
        let a = set(&[1, 3, 5, 7]);
        let b = set(&[5, 7]);
        assert_eq!(max_not_in(&a, &b), Some(TokenId(3)));
        assert_eq!(min_not_in(&a, &b), Some(TokenId(1)));
        assert_eq!(max_not_in(&a, &a), None);
        assert_eq!(min_not_in(&a, &a), None);
        assert_eq!(max_not_in(&a, &TokenSet::new()), Some(TokenId(7)));
    }

    #[test]
    fn max_not_in_either_skips_both() {
        let a = set(&[1, 2, 3, 4]);
        let b = set(&[4]);
        let c = set(&[3]);
        assert_eq!(max_not_in_either(&a, &b, &c), Some(TokenId(2)));
        assert_eq!(max_not_in_either(&a, &a, &c), None);
    }

    #[test]
    fn selections_cross_word_boundaries() {
        let a = set(&[2, 63, 64, 127, 128, 200]);
        let b = set(&[200, 128]);
        assert_eq!(max_not_in(&a, &b), Some(TokenId(127)));
        assert_eq!(min_not_in(&a, &set(&[2])), Some(TokenId(63)));
        assert_eq!(
            max_not_in_either(&a, &set(&[200]), &set(&[128, 127])),
            Some(TokenId(64))
        );
    }

    #[test]
    fn universe_is_dense() {
        let u = universe(4);
        assert_eq!(u.len(), 4);
        assert!(u.contains(&TokenId(0)));
        assert!(u.contains(&TokenId(3)));
        assert!(!u.contains(&TokenId(4)));
        let big = universe(130);
        assert_eq!(big.len(), 130);
        assert!(big.contains(&TokenId(129)));
        assert!(!big.contains(&TokenId(130)));
        assert_eq!(big.iter().count(), 130);
    }

    #[test]
    fn insert_contains_len() {
        let mut s = TokenSet::new();
        assert!(s.insert(TokenId(70)));
        assert!(!s.insert(TokenId(70)), "double insert reports not-fresh");
        assert!(s.insert(TokenId(3)));
        assert_eq!(s.len(), 2);
        assert!(s.contains(&TokenId(70)));
        assert!(!s.contains(&TokenId(71)));
        assert!(!s.contains(&TokenId(7000)), "probe past capacity is false");
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(&TokenId(70)));
    }

    #[test]
    fn iter_is_ascending() {
        let s = set(&[190, 0, 64, 63, 5]);
        let got: Vec<u64> = s.iter().map(|t| t.0).collect();
        assert_eq!(got, vec![0, 5, 63, 64, 190]);
        assert_eq!(s.min(), Some(TokenId(0)));
        assert_eq!(s.max(), Some(TokenId(190)));
        assert_eq!(TokenSet::new().min(), None);
        assert_eq!(TokenSet::new().max(), None);
    }

    #[test]
    fn union_with_counts_fresh_bits() {
        let mut a = set(&[1, 64]);
        a.union_with(&set(&[64, 65, 200]));
        assert_eq!(a.len(), 4);
        assert_eq!(a, set(&[1, 64, 65, 200]));
    }

    #[test]
    fn subset_and_capacity_insensitive_equality() {
        let small = set(&[1, 2]);
        let mut big = TokenSet::with_capacity(1000);
        big.insert(TokenId(1));
        big.insert(TokenId(2));
        assert_eq!(small, big, "equality ignores capacity");
        assert!(small.is_subset(&big) && big.is_subset(&small));
        assert!(small.is_subset(&set(&[1, 2, 900])));
        assert!(!set(&[1, 900]).is_subset(&small), "long tail not subset");
        let mut cleared = set(&[500]);
        cleared.clear();
        assert_eq!(cleared, TokenSet::new());
    }

    #[test]
    fn round_robin_covers_all_tokens() {
        let a = round_robin_assignment(3, 8);
        assert_eq!(a[0], vec![TokenId(0), TokenId(3), TokenId(6)]);
        assert_eq!(a[1], vec![TokenId(1), TokenId(4), TokenId(7)]);
        assert_eq!(a[2], vec![TokenId(2), TokenId(5)]);
        let total: usize = a.iter().map(Vec::len).sum();
        assert_eq!(total, 8);
    }

    #[test]
    fn single_source_concentrates() {
        let a = single_source_assignment(4, 5, 2);
        assert_eq!(a[2].len(), 5);
        assert!(a[0].is_empty() && a[1].is_empty() && a[3].is_empty());
    }
}

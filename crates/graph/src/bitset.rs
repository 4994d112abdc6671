//! A plain fixed-size bitset over `u64` words.
//!
//! The step pipeline in `ssr-runtime` keeps the round front (one
//! boolean per node) for graphs up to millions of nodes and clears it
//! at every round; `Vec<bool>` spends a byte per node and defeats
//! word-at-a-time clearing. This bitset is the struct-of-arrays
//! counterpart: one bit per node, `len/64` words, `O(n/64)` bulk
//! clear.

/// A fixed-capacity set of `usize` keys in `0..len`, one bit each.
///
/// # Examples
///
/// ```
/// use ssr_graph::Bitset;
///
/// let mut b = Bitset::new(100);
/// b.insert(3);
/// b.insert(64);
/// assert!(b.contains(3) && b.contains(64) && !b.contains(4));
/// assert_eq!(b.count(), 2);
/// assert_eq!(b.iter().collect::<Vec<_>>(), vec![3, 64]);
/// b.clear();
/// assert_eq!(b.count(), 0);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Bitset {
    words: Vec<u64>,
    len: usize,
}

impl Bitset {
    /// An empty set over the key range `0..len`.
    pub fn new(len: usize) -> Self {
        Bitset {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// The key-range size this set was created with (not the number of
    /// set bits — see [`Bitset::count`]).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the key range is empty (`len == 0`).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `i` is in the set.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range 0..{}", self.len);
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Inserts `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range 0..{}", self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Removes `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range 0..{}", self.len);
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Removes `i` and returns whether it was in the set.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn take(&mut self, i: usize) -> bool {
        let had = self.contains(i);
        self.remove(i);
        had
    }

    /// Removes every key (`O(len/64)`).
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Set bits in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }

    /// The backing words (for bulk scans).
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut b = Bitset::new(130);
        for i in [0, 63, 64, 65, 129] {
            assert!(!b.contains(i));
            b.insert(i);
            assert!(b.contains(i));
        }
        assert_eq!(b.count(), 5);
        b.remove(64);
        assert!(!b.contains(64));
        assert_eq!(b.count(), 4);
        assert!(b.take(63) && !b.take(63) && !b.contains(63));
        assert_eq!(b.count(), 3);
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![0, 65, 129]);
    }

    #[test]
    fn clear_resets_all_words() {
        let mut b = Bitset::new(200);
        for i in 0..200 {
            b.insert(i);
        }
        assert_eq!(b.count(), 200);
        b.clear();
        assert_eq!(b.count(), 0);
        assert!(b.words().iter().all(|&w| w == 0));
    }

    #[test]
    fn len_is_capacity_not_cardinality() {
        let b = Bitset::new(10);
        assert_eq!(b.len(), 10);
        assert_eq!(b.count(), 0);
        assert!(!b.is_empty());
        assert!(Bitset::new(0).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let b = Bitset::new(64);
        let _ = b.contains(64);
    }
}

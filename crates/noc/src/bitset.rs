//! A fixed-capacity set of small indices: the network's work lists.
//!
//! Each phase of a tick visits only the routers, buses or nodes that
//! hold work, in ascending index order. A bitset gives that order for
//! free (walk the words, then the set bits of each word), where a list
//! would need a sort; the count kept beside the words lets an empty set
//! — an idle network — be recognised in O(1).

/// A set over `0..capacity`, stored as 64-bit words.
#[derive(Clone, Debug, Default)]
pub(crate) struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An empty set over `0..capacity`.
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            words: vec![0; capacity.div_ceil(64)],
            len: 0,
        }
    }

    /// Adds `i`.
    #[inline]
    pub(crate) fn insert(&mut self, i: usize) {
        let (w, bit) = (i / 64, 1u64 << (i % 64));
        if self.words[w] & bit == 0 {
            self.words[w] |= bit;
            self.len += 1;
        }
    }

    /// Removes `i`.
    #[inline]
    pub(crate) fn remove(&mut self, i: usize) {
        let (w, bit) = (i / 64, 1u64 << (i % 64));
        if self.words[w] & bit != 0 {
            self.words[w] &= !bit;
            self.len -= 1;
        }
    }

    #[inline]
    #[cfg(test)]
    pub(crate) fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of members.
    #[inline]
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of 64-bit words; member `i` lives in word `i / 64`.
    #[inline]
    pub(crate) fn num_words(&self) -> usize {
        self.words.len()
    }

    /// Word `w`: bit `b` set means `w * 64 + b` is a member. Phases copy
    /// a word and walk its bits while they mutate the set.
    #[inline]
    pub(crate) fn word(&self, w: usize) -> u64 {
        self.words[w]
    }

    /// Empties the set.
    pub(crate) fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }
}

/// The set bits of a word, lowest first.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Bits(pub u64);

impl Iterator for Bits {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let b = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_iterate_in_ascending_order_across_words() {
        let mut s = BitSet::new(200);
        for i in [130, 3, 64, 199, 63, 3] {
            s.insert(i);
        }
        assert_eq!(s.len(), 5, "a repeated insert counts once");
        let members: Vec<usize> = (0..s.num_words())
            .flat_map(|w| Bits(s.word(w)).map(move |b| w * 64 + b))
            .collect();
        assert_eq!(members, [3, 63, 64, 130, 199]);
        s.remove(64);
        s.remove(65);
        assert_eq!(s.len(), 4, "removing a non-member changes nothing");
        assert!(!s.contains(64) && s.contains(63));
        s.clear();
        assert!(s.is_empty() && !s.contains(3));
    }

    #[test]
    fn bits_walks_set_bits_lowest_first() {
        assert_eq!(Bits(0b1010_0110).collect::<Vec<_>>(), [1, 2, 5, 7]);
        assert_eq!(Bits(1 << 63).collect::<Vec<_>>(), [63]);
        assert_eq!(Bits(0).next(), None);
    }
}

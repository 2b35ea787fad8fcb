//! k-mers and k-mer extraction.
//!
//! Metagenomic presence/absence identification in both MegIS and its baselines
//! operates on k-mers — length-`k` subsequences of reads and reference genomes
//! (§2.1.1 of the paper). The accuracy-optimized pipeline MegIS builds on uses
//! large k-mers (k = 60) so that a single match is highly specific; Kraken2-style
//! tools use k ≈ 35, and the sketch databases use variable-sized k-mers.
//!
//! A [`Kmer`] packs up to 64 bases into a `u128` (2 bits per base, first base in
//! the most significant position) so that integer comparison equals
//! lexicographic comparison — the property MegIS's sorted-stream intersection
//! and K-mer Sketch Streaming rely on.

use std::cmp::Ordering;
use std::fmt;

use crate::dna::{Base, PackedSequence};

/// Maximum supported k-mer length (bases) for the packed representation.
pub const MAX_K: usize = 60;

/// A fixed-length DNA substring packed into a `u128`.
///
/// The first base occupies the most significant 2 bits of the `2 * k`-bit
/// payload, so for k-mers of equal length, numeric order of the payload is
/// lexicographic order of the sequence.
///
/// # Example
///
/// ```
/// use megis_genomics::kmer::Kmer;
/// let a = Kmer::from_ascii(b"ACGT").unwrap();
/// let b = Kmer::from_ascii(b"ACTT").unwrap();
/// assert!(a < b);
/// assert_eq!(a.prefix(2), Kmer::from_ascii(b"AC").unwrap());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Kmer {
    bits: u128,
    k: u8,
}

impl Kmer {
    /// Creates a k-mer from a packed payload and length.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `k > MAX_K`, or `bits` has bits set above `2 * k`.
    pub fn from_bits(bits: u128, k: usize) -> Kmer {
        assert!(k > 0 && k <= MAX_K, "k must be in 1..={MAX_K}, got {k}");
        if k < 64 {
            assert!(
                bits < (1u128 << (2 * k)),
                "payload has bits beyond 2*k ({k})"
            );
        }
        Kmer { bits, k: k as u8 }
    }

    /// Parses a k-mer from ASCII.
    ///
    /// Returns `None` if the input is empty, longer than [`MAX_K`], or contains
    /// a character other than `ACGTacgt`.
    pub fn from_ascii(ascii: &[u8]) -> Option<Kmer> {
        if ascii.is_empty() || ascii.len() > MAX_K {
            return None;
        }
        let mut bits = 0u128;
        for &c in ascii {
            bits = (bits << 2) | Base::from_ascii(c)?.code() as u128;
        }
        Some(Kmer {
            bits,
            k: ascii.len() as u8,
        })
    }

    /// Builds a k-mer from a slice of bases.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty or longer than [`MAX_K`].
    pub fn from_bases(bases: &[Base]) -> Kmer {
        assert!(!bases.is_empty() && bases.len() <= MAX_K);
        let mut bits = 0u128;
        for &b in bases {
            bits = (bits << 2) | b.code() as u128;
        }
        Kmer {
            bits,
            k: bases.len() as u8,
        }
    }

    /// The k-mer length in bases.
    #[inline]
    pub fn k(&self) -> usize {
        self.k as usize
    }

    /// The packed 2-bit payload (first base in the most significant position).
    #[inline]
    pub fn bits(&self) -> u128 {
        self.bits
    }

    /// Returns the base at position `i` (0 = first base).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.k()`.
    #[inline]
    pub fn base(&self, i: usize) -> Base {
        assert!(i < self.k(), "base index out of range");
        let shift = 2 * (self.k() - 1 - i);
        Base::from_code(((self.bits >> shift) & 0b11) as u8)
    }

    /// Returns the length-`j` prefix of this k-mer.
    ///
    /// This is the operation MegIS's Index Generator performs when matching
    /// smaller (k < k_max) sketch entries against the intersecting k-mers
    /// (§4.3.2).
    ///
    /// # Panics
    ///
    /// Panics if `j == 0` or `j > self.k()`.
    #[inline]
    pub fn prefix(&self, j: usize) -> Kmer {
        assert!(j > 0 && j <= self.k(), "prefix length out of range");
        Kmer {
            bits: self.bits >> (2 * (self.k() - j)),
            k: j as u8,
        }
    }

    /// Returns the reverse complement of this k-mer, word-parallel: with
    /// `A = 0 … T = 3` the complement of a base is its bitwise NOT, and the
    /// 64 two-bit groups of the word reverse in three steps (bytes, nibbles
    /// within bytes, groups within nibbles). The payload then sits in the
    /// top `2k` bits, and the complemented padding falls off the shift.
    #[inline]
    pub fn reverse_complement(&self) -> Kmer {
        const NIBBLES: u128 = 0x0F0F_0F0F_0F0F_0F0F_0F0F_0F0F_0F0F_0F0F;
        const GROUPS: u128 = 0x3333_3333_3333_3333_3333_3333_3333_3333;
        let mut x = (!self.bits).swap_bytes();
        x = ((x >> 4) & NIBBLES) | ((x & NIBBLES) << 4);
        x = ((x >> 2) & GROUPS) | ((x & GROUPS) << 2);
        Kmer {
            bits: x >> (128 - 2 * self.k()),
            k: self.k,
        }
    }

    /// Returns the lexicographically smaller of this k-mer and its reverse
    /// complement (the *canonical* form used when strand is unknown).
    #[inline]
    pub fn canonical(&self) -> Kmer {
        let rc = self.reverse_complement();
        if rc.bits < self.bits {
            rc
        } else {
            *self
        }
    }

    /// Appends `base` on the right and drops the leftmost base (rolling
    /// update used by the extractor).
    #[inline]
    pub fn roll(&self, base: Base) -> Kmer {
        let mask = if self.k() == 64 {
            u128::MAX
        } else {
            (1u128 << (2 * self.k())) - 1
        };
        Kmer {
            bits: ((self.bits << 2) | base.code() as u128) & mask,
            k: self.k,
        }
    }

    /// Converts the k-mer to a packed sequence.
    pub fn to_sequence(&self) -> PackedSequence {
        (0..self.k()).map(|i| self.base(i)).collect()
    }

    /// Size of this k-mer in the 2-bit on-disk encoding, rounded up to bytes.
    #[inline]
    pub fn encoded_bytes(&self) -> usize {
        (2 * self.k()).div_ceil(8)
    }
}

impl PartialOrd for Kmer {
    fn partial_cmp(&self, other: &Kmer) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Kmer {
    /// Lexicographic order: compare base by base; a proper prefix sorts before
    /// any extension of it (matching the order of the sorted databases MegIS
    /// streams through).
    fn cmp(&self, other: &Kmer) -> Ordering {
        let common = self.k().min(other.k());
        let a = self.prefix(common).bits;
        let b = other.prefix(common).bits;
        a.cmp(&b).then_with(|| self.k().cmp(&other.k()))
    }
}

impl fmt::Display for Kmer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.k() {
            write!(f, "{}", self.base(i))?;
        }
        Ok(())
    }
}

/// Iterator over every k-mer of a sequence, in read order.
///
/// Produced k-mers are *forward strand only*; use [`CanonicalKmerExtractor`]
/// when strand-insensitive matching is needed.
///
/// # Example
///
/// ```
/// use megis_genomics::dna::PackedSequence;
/// use megis_genomics::kmer::KmerExtractor;
/// let seq = PackedSequence::from_ascii(b"ACGTAC").unwrap();
/// let kmers: Vec<String> = KmerExtractor::new(&seq, 4).map(|k| k.to_string()).collect();
/// assert_eq!(kmers, vec!["ACGT", "CGTA", "GTAC"]);
/// ```
#[derive(Debug, Clone)]
pub struct KmerExtractor<'a> {
    seq: &'a PackedSequence,
    k: usize,
    pos: usize,
    current: Option<Kmer>,
}

impl<'a> KmerExtractor<'a> {
    /// Creates an extractor over `seq` producing k-mers of length `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > MAX_K`.
    pub fn new(seq: &'a PackedSequence, k: usize) -> Self {
        assert!(k > 0 && k <= MAX_K, "k must be in 1..={MAX_K}");
        KmerExtractor {
            seq,
            k,
            pos: 0,
            current: None,
        }
    }
}

impl Iterator for KmerExtractor<'_> {
    type Item = Kmer;

    fn next(&mut self) -> Option<Kmer> {
        if self.seq.len() < self.k || self.pos + self.k > self.seq.len() {
            return None;
        }
        let kmer = match self.current {
            None => {
                let bits = (0..self.k).fold(0u128, |bits, i| {
                    (bits << 2) | self.seq.get(i).code() as u128
                });
                Kmer {
                    bits,
                    k: self.k as u8,
                }
            }
            Some(prev) => prev.roll(self.seq.get(self.pos + self.k - 1)),
        };
        self.current = Some(kmer);
        self.pos += 1;
        Some(kmer)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let total = if self.seq.len() >= self.k {
            self.seq.len() - self.k + 1
        } else {
            0
        };
        let remaining = total.saturating_sub(self.pos);
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for KmerExtractor<'_> {}

/// Iterator over the canonical k-mers of a sequence (minimum of each k-mer and
/// its reverse complement), created with [`CanonicalKmerExtractor::new`].
#[derive(Debug, Clone)]
pub struct CanonicalKmerExtractor<'a> {
    inner: KmerExtractor<'a>,
}

impl<'a> CanonicalKmerExtractor<'a> {
    /// Creates a canonical-k-mer extractor over `seq`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > MAX_K`.
    pub fn new(seq: &'a PackedSequence, k: usize) -> Self {
        CanonicalKmerExtractor {
            inner: KmerExtractor::new(seq, k),
        }
    }
}

impl Iterator for CanonicalKmerExtractor<'_> {
    type Item = Kmer;

    fn next(&mut self) -> Option<Kmer> {
        self.inner.next().map(|k| k.canonical())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl ExactSizeIterator for CanonicalKmerExtractor<'_> {}

/// Number of k-mers a read of `read_len` bases yields for a given `k`
/// (zero if the read is shorter than `k`).
#[inline]
pub fn kmers_per_read(read_len: usize, k: usize) -> usize {
    read_len
        .saturating_sub(k)
        .saturating_add(if read_len >= k { 1 } else { 0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kmer_from_ascii_roundtrip() {
        let k = Kmer::from_ascii(b"ACGTTGCA").unwrap();
        assert_eq!(k.k(), 8);
        assert_eq!(k.to_string(), "ACGTTGCA");
    }

    #[test]
    fn kmer_rejects_invalid_inputs() {
        assert!(Kmer::from_ascii(b"").is_none());
        assert!(Kmer::from_ascii(b"ACGN").is_none());
        assert!(Kmer::from_ascii(&[b'A'; 61]).is_none());
        assert!(Kmer::from_ascii(&[b'A'; 60]).is_some());
    }

    #[test]
    fn kmer_order_is_lexicographic() {
        let kmers = ["AAAA", "AAAC", "AACA", "ACGT", "CAAA", "TTTT"];
        for w in kmers.windows(2) {
            let a = Kmer::from_ascii(w[0].as_bytes()).unwrap();
            let b = Kmer::from_ascii(w[1].as_bytes()).unwrap();
            assert!(a < b, "{} should sort before {}", w[0], w[1]);
        }
    }

    #[test]
    fn prefix_sorts_before_extension() {
        let short = Kmer::from_ascii(b"ACG").unwrap();
        let long = Kmer::from_ascii(b"ACGA").unwrap();
        assert!(short < long);
        assert_eq!(long.prefix(3), short);
    }

    #[test]
    fn prefix_of_60mer() {
        let seq: Vec<u8> = (0..60).map(|i| b"ACGT"[i % 4]).collect();
        let k60 = Kmer::from_ascii(&seq).unwrap();
        let p = k60.prefix(4);
        assert_eq!(p.to_string(), "ACGT");
    }

    #[test]
    fn roll_matches_extraction() {
        let seq = PackedSequence::from_ascii(b"ACGTACGTT").unwrap();
        let mut ex = KmerExtractor::new(&seq, 5);
        let first = ex.next().unwrap();
        let second = ex.next().unwrap();
        assert_eq!(first.roll(seq.get(5)), second);
    }

    #[test]
    fn extractor_counts_and_contents() {
        let seq = PackedSequence::from_ascii(b"ACGTAC").unwrap();
        let kmers: Vec<String> = KmerExtractor::new(&seq, 4).map(|k| k.to_string()).collect();
        assert_eq!(kmers, vec!["ACGT", "CGTA", "GTAC"]);
        assert_eq!(KmerExtractor::new(&seq, 7).count(), 0);
        assert_eq!(KmerExtractor::new(&seq, 6).count(), 1);
    }

    #[test]
    fn canonical_extractor_is_strand_symmetric() {
        let seq = PackedSequence::from_ascii(b"ACGGTTACAGT").unwrap();
        let rc = seq.reverse_complement();
        let mut fwd: Vec<Kmer> = CanonicalKmerExtractor::new(&seq, 5).collect();
        let mut rev: Vec<Kmer> = CanonicalKmerExtractor::new(&rc, 5).collect();
        fwd.sort();
        rev.sort();
        assert_eq!(fwd, rev);
    }

    #[test]
    fn canonical_is_min_of_strands() {
        let k = Kmer::from_ascii(b"TTTT").unwrap();
        assert_eq!(k.canonical().to_string(), "AAAA");
        let k = Kmer::from_ascii(b"AAAA").unwrap();
        assert_eq!(k.canonical().to_string(), "AAAA");
    }

    #[test]
    fn kmers_per_read_helper() {
        assert_eq!(kmers_per_read(150, 31), 120);
        assert_eq!(kmers_per_read(150, 60), 91);
        assert_eq!(kmers_per_read(30, 31), 0);
        assert_eq!(kmers_per_read(31, 31), 1);
    }

    #[test]
    fn encoded_bytes_matches_two_bit_encoding() {
        assert_eq!(Kmer::from_ascii(b"ACGT").unwrap().encoded_bytes(), 1);
        assert_eq!(Kmer::from_ascii(b"ACGTA").unwrap().encoded_bytes(), 2);
        let seq: Vec<u8> = (0..60).map(|_| b'A').collect();
        assert_eq!(Kmer::from_ascii(&seq).unwrap().encoded_bytes(), 15);
    }
}

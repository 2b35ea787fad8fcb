//! k-mers and k-mer extraction.
//!
//! Metagenomic presence/absence identification in both MegIS and its baselines
//! operates on k-mers — length-`k` subsequences of reads and reference genomes
//! (§2.1.1 of the paper). The accuracy-optimized pipeline MegIS builds on uses
//! large k-mers (k = 60) so that a single match is highly specific; Kraken2-style
//! tools use k ≈ 35, and the sketch databases use variable-sized k-mers.
//!
//! A [`Kmer`] is one `u128`: up to [`MAX_K`] bases at 2 bits each, left-aligned,
//! with the length in the low byte, so that plain integer comparison *is*
//! lexicographic comparison — the property MegIS's sorted-stream intersection
//! and K-mer Sketch Streaming rely on — and a sorted k-mer stream is a sorted
//! stream of integers.
//!
//! # The word rule
//!
//! Within one stream `k` is a constant, so the length byte carries nothing
//! and the payload alone — `2k` bits, left-aligned in a [`KmerWord`] — orders
//! the stream. The word is sized to the payload: `u64` when `2k <= 64`
//! ([`fits_half_word`]), `u128` otherwise. [`CanonicalWords`] is the one
//! rolling canonical extractor, generic over that word; the host's Step 1
//! sorts its words and the read mapper's seed column stores them, at half the
//! bytes of a [`Kmer`] for every `k <= 32`. [`CanonicalKmerExtractor`] is its
//! `u128` adapter, and [`Kmer::from_word`] / [`Kmer::word`] are the two
//! conversions.

use std::fmt;
use std::ops::{BitAnd, BitOr, Shl, Shr};

use crate::dna::{Base, PackedSequence};

/// Maximum supported k-mer length (bases): 120 payload bits above the length
/// byte.
pub const MAX_K: usize = 60;

/// A DNA substring of 1 to [`MAX_K`] bases packed into one `u128` word.
///
/// The first base occupies bits 127..126, the next 125..124, and so on; the
/// bits between the last base and the low byte are zero; the low byte holds
/// `k`. The derived order on that word is lexicographic order of the
/// sequences, *including across lengths*: two k-mers that differ at some
/// common position differ there first in the word; otherwise the shorter is
/// a prefix of the longer, its zero padding (`A` = 0 is the smallest base)
/// makes its payload `<=` the longer one's, and when even the payloads tie
/// (`ACG` against `ACGA`) the length byte puts the proper prefix first —
/// the order of the sorted databases MegIS streams through.
///
/// # Example
///
/// ```
/// use megis_genomics::kmer::Kmer;
/// let a = Kmer::from_ascii(b"ACGT").unwrap();
/// let b = Kmer::from_ascii(b"ACTT").unwrap();
/// assert!(a < b);
/// assert_eq!(a.prefix(2), Kmer::from_ascii(b"AC").unwrap());
/// assert!(a.prefix(2) < a);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Kmer(u128);

const _: () = assert!(std::mem::size_of::<Kmer>() == 16 && MAX_K <= 60);

impl Kmer {
    /// Packs a right-aligned `2 * k`-bit payload; `k` is in `1..=MAX_K`.
    #[inline]
    fn pack(bits: u128, k: usize) -> Kmer {
        Kmer((bits << (128 - 2 * k)) | k as u128)
    }

    /// Creates a k-mer from a right-aligned 2-bit payload (first base in the
    /// most significant of its `2 * k` bits) and a length.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `k > MAX_K`, or `bits` has bits set above `2 * k`.
    pub fn from_bits(bits: u128, k: usize) -> Kmer {
        assert!(k > 0 && k <= MAX_K, "k must be in 1..={MAX_K}, got {k}");
        assert!(
            bits < (1u128 << (2 * k)),
            "payload has bits beyond 2*k ({k})"
        );
        Kmer::pack(bits, k)
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
        Some(Kmer::pack(bits, ascii.len()))
    }

    /// Builds a k-mer from a slice of bases.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty or longer than [`MAX_K`].
    pub fn from_bases(bases: &[Base]) -> Kmer {
        assert!(!bases.is_empty() && bases.len() <= MAX_K);
        let bits = bases
            .iter()
            .fold(0u128, |bits, b| (bits << 2) | b.code() as u128);
        Kmer::pack(bits, bases.len())
    }

    /// The k-mer of length `k` whose left-aligned payload is `word` (bits
    /// below the payload clear), as [`CanonicalWords`] yields it; `k` is in
    /// `1..=MAX_K` and fits the word.
    #[inline]
    pub fn from_word<W: KmerWord>(word: W, k: usize) -> Kmer {
        debug_assert!(k > 0 && k <= MAX_K && 2 * k <= W::BITS as usize);
        Kmer(word.widen() | k as u128)
    }

    /// The left-aligned payload without the length byte — the inverse of
    /// [`Kmer::from_word`], for a word that fits `2 * k` bits.
    #[inline]
    pub fn word<W: KmerWord>(&self) -> W {
        debug_assert!(2 * self.k() <= W::BITS as usize);
        W::narrow(self.0 & !0xFF)
    }

    /// The k-mer length in bases.
    #[inline]
    pub fn k(&self) -> usize {
        self.0 as u8 as usize
    }

    /// The 2-bit payload, right-aligned (first base in the most significant
    /// of its `2 * k` bits) — the inverse of [`Kmer::from_bits`].
    #[inline]
    pub fn bits(&self) -> u128 {
        self.0 >> (128 - 2 * self.k())
    }

    /// Returns the base at position `i` (0 = first base).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.k()`.
    #[inline]
    pub fn base(&self, i: usize) -> Base {
        assert!(i < self.k(), "base index out of range");
        Base::from_code(((self.0 >> (126 - 2 * i)) & 0b11) as u8)
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
        Kmer::pack(self.0 >> (128 - 2 * j), j)
    }

    /// Returns the reverse complement of this k-mer, word-parallel: with
    /// `A = 0 … T = 3` the complement of a base is its bitwise NOT, and the
    /// 64 two-bit groups of the word reverse in three steps (bytes, nibbles
    /// within bytes, groups within nibbles). That leaves the payload in the
    /// low `2k` bits; shifting it back to the top drops the complemented
    /// padding and length byte.
    #[inline]
    pub fn reverse_complement(&self) -> Kmer {
        const NIBBLES: u128 = 0x0F0F_0F0F_0F0F_0F0F_0F0F_0F0F_0F0F_0F0F;
        const GROUPS: u128 = 0x3333_3333_3333_3333_3333_3333_3333_3333;
        let mut x = (!self.0).swap_bytes();
        x = ((x >> 4) & NIBBLES) | ((x & NIBBLES) << 4);
        x = ((x >> 2) & GROUPS) | ((x & GROUPS) << 2);
        Kmer::pack(x, self.k())
    }

    /// Returns the lexicographically smaller of this k-mer and its reverse
    /// complement (the *canonical* form used when strand is unknown).
    #[inline]
    pub fn canonical(&self) -> Kmer {
        (*self).min(self.reverse_complement())
    }

    /// Appends `base` on the right and drops the leftmost base (rolling
    /// update used by the extractor). The length byte is masked off before
    /// the shift so it cannot leak into the payload.
    #[inline]
    pub fn roll(&self, base: Base) -> Kmer {
        let k = self.k();
        Kmer(((self.0 & !0xFF) << 2) | ((base.code() as u128) << (128 - 2 * k)) | k as u128)
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

impl fmt::Display for Kmer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.k() {
            write!(f, "{}", self.base(i))?;
        }
        Ok(())
    }
}

/// Prints the bases and the length, not the packed word.
impl fmt::Debug for Kmer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Kmer({self}, k={})", self.k())
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
                Kmer::pack(bits, self.k)
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

/// Returns `true` when a length-`k` payload fits the half-width word
/// (`2k <= 64`): the width rule, stated once. Step 1 and the seed column run
/// on `u64` words exactly when it holds.
#[inline]
pub const fn fits_half_word(k: usize) -> bool {
    2 * k <= u64::BITS as usize
}

/// An unsigned machine word holding a k-mer's 2-bit payload left-aligned
/// (first base in the top two bits, zeros below the last base), so integer
/// order is lexicographic order among words of one `k`. Implemented for
/// `u64` and `u128`, the two widths of the [word rule](self#the-word-rule).
pub trait KmerWord:
    Copy
    + Ord
    + Default
    + From<u8>
    + Shl<u32, Output = Self>
    + Shr<u32, Output = Self>
    + BitOr<Output = Self>
    + BitAnd<Output = Self>
{
    /// Width of the word in bits.
    const BITS: u32;
    /// The word with every bit set.
    const MAX: Self;

    /// The word's top `bits` bits as an index (`0` for `bits == 0`) — the
    /// lexicographic-range bucket of a radix pass.
    fn top_bits(self, bits: u32) -> usize;

    /// The same payload left-aligned in a `u128`.
    fn widen(self) -> u128;

    /// The top `Self::BITS` bits of a left-aligned `u128` payload.
    fn narrow(wide: u128) -> Self;
}

macro_rules! impl_kmer_word {
    ($($word:ty),*) => {$(
        impl KmerWord for $word {
            const BITS: u32 = <$word>::BITS;
            const MAX: $word = <$word>::MAX;

            #[inline]
            fn top_bits(self, bits: u32) -> usize {
                self.checked_shr(<$word>::BITS - bits).unwrap_or(0) as usize
            }

            #[inline]
            fn widen(self) -> u128 {
                u128::from(self) << (u128::BITS - <$word>::BITS)
            }

            #[inline]
            fn narrow(wide: u128) -> $word {
                (wide >> (u128::BITS - <$word>::BITS)) as $word
            }
        }
    )*};
}

impl_kmer_word!(u64, u128);

/// Iterator over the canonical k-mers of a sequence (minimum of each k-mer
/// and its reverse complement) as left-aligned payload words — the one
/// rolling extractor, generic over the [`KmerWord`] the payload is sized to.
///
/// It rolls the forward word and the reverse-complement word together — one
/// shift and one OR each per base — and emits the smaller, so no k-mer pays
/// a [`Kmer::reverse_complement`].
#[derive(Debug, Clone)]
pub struct CanonicalWords<'a, W> {
    seq: &'a PackedSequence,
    /// Bits below the payload: `W::BITS - 2 * k`.
    low: u32,
    /// Bases rolled in so far; each further one completes a k-mer.
    pos: usize,
    /// Left-aligned payloads of the last `k` bases and of their reverse
    /// complement.
    forward: W,
    reverse: W,
}

impl<'a, W: KmerWord> CanonicalWords<'a, W> {
    /// Creates a canonical-word extractor over `seq`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `k > MAX_K`, or `2 * k` bits do not fit `W`.
    pub fn new(seq: &'a PackedSequence, k: usize) -> Self {
        assert!(k > 0 && k <= MAX_K, "k must be in 1..={MAX_K}");
        assert!(
            2 * k <= W::BITS as usize,
            "a {k}-mer does not fit a {}-bit word",
            W::BITS
        );
        let mut extractor = CanonicalWords {
            seq,
            low: W::BITS - 2 * k as u32,
            pos: 0,
            forward: W::default(),
            reverse: W::default(),
        };
        for _ in 0..(k - 1).min(seq.len()) {
            extractor.roll_in();
        }
        extractor
    }

    /// Rolls base `pos` into both words: appended below the forward payload
    /// (whose first base falls off the top), its complement prepended above
    /// the reverse one (whose last base is masked off the bottom).
    #[inline]
    fn roll_in(&mut self) {
        let code = self.seq.get(self.pos).code();
        self.forward = (self.forward << 2) | (W::from(code) << self.low);
        self.reverse =
            ((self.reverse >> 2) & (W::MAX << self.low)) | (W::from(3 - code) << (W::BITS - 2));
        self.pos += 1;
    }
}

impl<W: KmerWord> Iterator for CanonicalWords<'_, W> {
    type Item = W;

    #[inline]
    fn next(&mut self) -> Option<W> {
        if self.pos >= self.seq.len() {
            return None;
        }
        self.roll_in();
        Some(self.forward.min(self.reverse))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.seq.len() - self.pos;
        (remaining, Some(remaining))
    }
}

impl<W: KmerWord> ExactSizeIterator for CanonicalWords<'_, W> {}

/// Iterator over the canonical k-mers of a sequence as [`Kmer`]s, created
/// with [`CanonicalKmerExtractor::new`]: the full-width [`CanonicalWords`]
/// with the length byte put back — what every database, sketch and index
/// build consumes.
#[derive(Debug, Clone)]
pub struct CanonicalKmerExtractor<'a> {
    words: CanonicalWords<'a, u128>,
    k: usize,
}

impl<'a> CanonicalKmerExtractor<'a> {
    /// Creates a canonical-k-mer extractor over `seq`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > MAX_K`.
    pub fn new(seq: &'a PackedSequence, k: usize) -> Self {
        CanonicalKmerExtractor {
            words: CanonicalWords::new(seq, k),
            k,
        }
    }
}

impl Iterator for CanonicalKmerExtractor<'_> {
    type Item = Kmer;

    #[inline]
    fn next(&mut self) -> Option<Kmer> {
        let word = self.words.next()?;
        Some(Kmer::from_word(word, self.k))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.words.size_hint()
    }
}

impl ExactSizeIterator for CanonicalKmerExtractor<'_> {}

/// Number of k-mers a read of `read_len` bases yields for a given `k`
/// (zero if the read is shorter than `k`, and for `k == 0`, which no
/// extractor accepts).
#[inline]
pub fn kmers_per_read(read_len: usize, k: usize) -> usize {
    if k == 0 || read_len < k {
        0
    } else {
        read_len - k + 1
    }
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
        assert_eq!(kmers_per_read(31, 0), 0);
        assert_eq!(kmers_per_read(0, 0), 0);
    }

    #[test]
    fn word_rule_and_bucket_index() {
        assert!(fits_half_word(1) && fits_half_word(32) && !fits_half_word(33));
        // Zero radix bits index the one bucket; otherwise the leading bits.
        assert_eq!(u64::MAX.top_bits(0), 0);
        assert_eq!((0b101u64 << 61).top_bits(3), 0b101);
        assert_eq!((1u128 << 127).top_bits(3), 0b100);
        assert_eq!(u64::narrow(7u64.widen()), 7);
    }

    #[test]
    #[should_panic(expected = "does not fit a 64-bit word")]
    fn half_width_extractor_rejects_a_33_mer() {
        let seq = PackedSequence::from_ascii(b"ACGT").unwrap();
        let _ = CanonicalWords::<u64>::new(&seq, 33);
    }

    #[test]
    fn encoded_bytes_matches_two_bit_encoding() {
        assert_eq!(Kmer::from_ascii(b"ACGT").unwrap().encoded_bytes(), 1);
        assert_eq!(Kmer::from_ascii(b"ACGTA").unwrap().encoded_bytes(), 2);
        let seq: Vec<u8> = (0..60).map(|_| b'A').collect();
        assert_eq!(Kmer::from_ascii(&seq).unwrap().encoded_bytes(), 15);
    }
}

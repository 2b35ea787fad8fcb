//! 2-bit packed DNA sequences.
//!
//! MegIS encodes all database and query sequences with two bits per nucleotide
//! (`A`, `C`, `G`, `T`) during offline database generation and after Step 1 of
//! its pipeline (§4.2 of the paper). [`PackedSequence`] is that encoding: a
//! growable, random-access sequence of [`Base`]s stored four to a byte.

use std::fmt;

/// A single DNA nucleotide.
///
/// The numeric values (`A = 0`, `C = 1`, `G = 2`, `T = 3`) define the 2-bit
/// encoding used throughout the workspace and make the lexicographic order of
/// packed k-mers identical to the numeric order of their bit patterns.
///
/// # Example
///
/// ```
/// use megis_genomics::dna::Base;
/// assert_eq!(Base::from_ascii(b'g'), Some(Base::G));
/// assert_eq!(Base::G.complement(), Base::C);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Base {
    /// Adenine.
    A = 0,
    /// Cytosine.
    C = 1,
    /// Guanine.
    G = 2,
    /// Thymine.
    T = 3,
}

impl Base {
    /// All four bases in encoding order.
    pub const ALL: [Base; 4] = [Base::A, Base::C, Base::G, Base::T];

    /// Decodes a 2-bit value into a base.
    ///
    /// # Panics
    ///
    /// Panics if `code > 3`.
    #[inline]
    pub fn from_code(code: u8) -> Base {
        match code & 0b11 {
            0 => Base::A,
            1 => Base::C,
            2 => Base::G,
            3 => Base::T,
            _ => unreachable!(),
        }
    }

    /// Returns the 2-bit encoding of this base.
    #[inline]
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Parses an ASCII nucleotide character (case-insensitive).
    ///
    /// Returns `None` for ambiguous or invalid characters (e.g. `N`), which
    /// callers typically treat as k-mer breakpoints.
    #[inline]
    pub fn from_ascii(c: u8) -> Option<Base> {
        match c {
            b'A' | b'a' => Some(Base::A),
            b'C' | b'c' => Some(Base::C),
            b'G' | b'g' => Some(Base::G),
            b'T' | b't' => Some(Base::T),
            _ => None,
        }
    }

    /// Returns the ASCII character for this base.
    #[inline]
    pub fn to_ascii(self) -> u8 {
        match self {
            Base::A => b'A',
            Base::C => b'C',
            Base::G => b'G',
            Base::T => b'T',
        }
    }

    /// Returns the Watson–Crick complement of this base.
    #[inline]
    pub fn complement(self) -> Base {
        match self {
            Base::A => Base::T,
            Base::C => Base::G,
            Base::G => Base::C,
            Base::T => Base::A,
        }
    }
}

impl fmt::Display for Base {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_ascii() as char)
    }
}

/// A DNA sequence stored with two bits per base (four bases per byte).
///
/// This is the storage format MegIS assumes for its k-mer databases and for
/// query k-mers after format conversion in Step 1. It supports random access,
/// append, reverse complement, and conversion to/from ASCII.
///
/// # Example
///
/// ```
/// use megis_genomics::dna::PackedSequence;
/// let seq = PackedSequence::from_ascii(b"ACGTACGT").unwrap();
/// assert_eq!(seq.len(), 8);
/// assert_eq!(seq.to_string(), "ACGTACGT");
/// assert_eq!(seq.reverse_complement().to_string(), "ACGTACGT");
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct PackedSequence {
    data: Vec<u8>,
    len: usize,
}

impl PackedSequence {
    /// Creates an empty sequence.
    pub fn new() -> Self {
        PackedSequence::default()
    }

    /// Creates an empty sequence with capacity for `bases` nucleotides.
    pub fn with_capacity(bases: usize) -> Self {
        PackedSequence {
            data: Vec::with_capacity(bases.div_ceil(4)),
            len: 0,
        }
    }

    /// Parses an ASCII sequence.
    ///
    /// # Errors
    ///
    /// Returns the byte offset of the first character that is not one of
    /// `ACGTacgt`.
    pub fn from_ascii(ascii: &[u8]) -> Result<Self, usize> {
        let mut seq = PackedSequence::with_capacity(ascii.len());
        for (i, &c) in ascii.iter().enumerate() {
            match Base::from_ascii(c) {
                Some(b) => seq.push(b),
                None => return Err(i),
            }
        }
        Ok(seq)
    }

    /// Builds a sequence from an iterator of bases.
    pub fn from_bases<I: IntoIterator<Item = Base>>(bases: I) -> Self {
        let iter = bases.into_iter();
        let mut seq = PackedSequence::with_capacity(iter.size_hint().0);
        for b in iter {
            seq.push(b);
        }
        seq
    }

    /// Number of bases in the sequence.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Heap bytes of the packed bases, charged on capacity.
    pub fn heap_bytes(&self) -> u64 {
        self.data.capacity() as u64
    }

    /// Returns `true` if the sequence contains no bases.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of bytes used by the packed representation.
    #[inline]
    pub fn packed_bytes(&self) -> usize {
        self.data.len()
    }

    /// Appends a base to the end of the sequence.
    #[inline]
    pub fn push(&mut self, base: Base) {
        let bit_offset = (self.len % 4) * 2;
        if bit_offset == 0 {
            self.data.push(base.code());
        } else {
            let last = self.data.last_mut().expect("non-empty data");
            *last |= base.code() << bit_offset;
        }
        self.len += 1;
    }

    /// Returns the base at position `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[inline]
    pub fn get(&self, index: usize) -> Base {
        assert!(
            index < self.len,
            "index {index} out of bounds (len {})",
            self.len
        );
        let byte = self.data[index / 4];
        let bit_offset = (index % 4) * 2;
        Base::from_code((byte >> bit_offset) & 0b11)
    }

    /// Iterates over the bases of the sequence.
    pub fn iter(&self) -> Bases<'_> {
        Bases { seq: self, pos: 0 }
    }

    /// Returns the reverse complement of the sequence.
    pub fn reverse_complement(&self) -> PackedSequence {
        let mut out = PackedSequence::with_capacity(self.len);
        for i in (0..self.len).rev() {
            out.push(self.get(i).complement());
        }
        out
    }

    /// Returns a contiguous subsequence `[start, start + len)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn subsequence(&self, start: usize, len: usize) -> PackedSequence {
        assert!(start + len <= self.len, "subsequence out of bounds");
        let mut out = PackedSequence::with_capacity(len);
        for i in start..start + len {
            out.push(self.get(i));
        }
        out
    }

    /// Converts the sequence to an ASCII byte vector.
    pub fn to_ascii(&self) -> Vec<u8> {
        self.iter().map(Base::to_ascii).collect()
    }

    /// Appends all bases of `other` to `self`.
    pub fn extend_from(&mut self, other: &PackedSequence) {
        for b in other.iter() {
            self.push(b);
        }
    }
}

impl fmt::Display for PackedSequence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.iter() {
            write!(f, "{b}")?;
        }
        Ok(())
    }
}

impl FromIterator<Base> for PackedSequence {
    fn from_iter<I: IntoIterator<Item = Base>>(iter: I) -> Self {
        PackedSequence::from_bases(iter)
    }
}

impl Extend<Base> for PackedSequence {
    fn extend<I: IntoIterator<Item = Base>>(&mut self, iter: I) {
        for b in iter {
            self.push(b);
        }
    }
}

/// Iterator over the bases of a [`PackedSequence`], created by
/// [`PackedSequence::iter`].
#[derive(Debug, Clone)]
pub struct Bases<'a> {
    seq: &'a PackedSequence,
    pos: usize,
}

impl Iterator for Bases<'_> {
    type Item = Base;

    fn next(&mut self) -> Option<Base> {
        if self.pos < self.seq.len() {
            let b = self.seq.get(self.pos);
            self.pos += 1;
            Some(b)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.seq.len() - self.pos;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for Bases<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_roundtrip_codes() {
        for b in Base::ALL {
            assert_eq!(Base::from_code(b.code()), b);
            assert_eq!(Base::from_ascii(b.to_ascii()), Some(b));
        }
    }

    #[test]
    fn base_complement_is_involution() {
        for b in Base::ALL {
            assert_eq!(b.complement().complement(), b);
        }
    }

    #[test]
    fn base_rejects_ambiguous_characters() {
        assert_eq!(Base::from_ascii(b'N'), None);
        assert_eq!(Base::from_ascii(b'-'), None);
        assert_eq!(Base::from_ascii(b'U'), None);
    }

    #[test]
    fn packed_sequence_push_and_get() {
        let mut seq = PackedSequence::new();
        let bases = [
            Base::A,
            Base::C,
            Base::G,
            Base::T,
            Base::T,
            Base::G,
            Base::C,
        ];
        for b in bases {
            seq.push(b);
        }
        assert_eq!(seq.len(), 7);
        for (i, b) in bases.iter().enumerate() {
            assert_eq!(seq.get(i), *b);
        }
        assert_eq!(seq.packed_bytes(), 2);
    }

    #[test]
    fn packed_sequence_from_ascii_roundtrip() {
        let s = b"ACGTTGCAACGT";
        let seq = PackedSequence::from_ascii(s).unwrap();
        assert_eq!(seq.to_ascii(), s.to_vec());
        assert_eq!(seq.to_string(), "ACGTTGCAACGT");
    }

    #[test]
    fn packed_sequence_rejects_invalid() {
        assert_eq!(PackedSequence::from_ascii(b"ACGNXT"), Err(3));
    }

    #[test]
    fn reverse_complement_matches_manual() {
        let seq = PackedSequence::from_ascii(b"AACGT").unwrap();
        assert_eq!(seq.reverse_complement().to_string(), "ACGTT");
    }

    #[test]
    fn reverse_complement_is_involution() {
        let seq = PackedSequence::from_ascii(b"ACGGTTACAGTAGCTAGCT").unwrap();
        assert_eq!(seq.reverse_complement().reverse_complement(), seq);
    }

    #[test]
    fn subsequence_extracts_window() {
        let seq = PackedSequence::from_ascii(b"ACGTACGTAC").unwrap();
        assert_eq!(seq.subsequence(2, 4).to_string(), "GTAC");
        assert_eq!(seq.subsequence(0, 0).len(), 0);
    }

    #[test]
    fn extend_and_collect() {
        let a = PackedSequence::from_ascii(b"ACG").unwrap();
        let b = PackedSequence::from_ascii(b"TTT").unwrap();
        let mut c = a.clone();
        c.extend_from(&b);
        assert_eq!(c.to_string(), "ACGTTT");
        let collected: PackedSequence = a.iter().chain(b.iter()).collect();
        assert_eq!(collected, c);
    }

    #[test]
    fn iterator_is_exact_size() {
        let seq = PackedSequence::from_ascii(b"ACGTACG").unwrap();
        let mut it = seq.iter();
        assert_eq!(it.len(), 7);
        it.next();
        assert_eq!(it.len(), 6);
    }
}

//! The core [`Bits`] type: construction, access and resizing.

/// A fixed-width two's-complement bit vector.
///
/// The value is stored little-endian in 64-bit words; bits above `width` are
/// always zero (a maintained invariant all operations rely on). Arithmetic
/// wraps modulo `2^width`, mirroring synthesizable HDL semantics.
///
/// # Examples
///
/// ```
/// use hc_bits::Bits;
///
/// let row = Bits::zero(96);      // one AXI beat carrying eight 12-bit pixels
/// assert_eq!(row.width(), 96);
/// assert!(row.is_zero());
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Bits {
    width: u32,
    words: Vec<u64>,
}

impl Bits {
    /// The widest supported vector, generous enough for whole-matrix buses
    /// (an 8×8 matrix of 12-bit words is 768 bits).
    pub const MAX_WIDTH: u32 = 4096;

    /// Creates an all-zero vector of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds [`Bits::MAX_WIDTH`].
    pub fn zero(width: u32) -> Self {
        assert!(
            (1..=Self::MAX_WIDTH).contains(&width),
            "bit width {width} out of range 1..={}",
            Self::MAX_WIDTH
        );
        Bits {
            width,
            words: vec![0; Self::words_for(width)],
        }
    }

    /// Creates an all-ones vector of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds [`Bits::MAX_WIDTH`].
    pub fn ones(width: u32) -> Self {
        let mut b = Self::zero(width);
        for w in &mut b.words {
            *w = u64::MAX;
        }
        b.mask_top();
        b
    }

    /// Creates a vector from an unsigned value, truncating to `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is out of range (see [`Bits::zero`]).
    pub fn from_u64(width: u32, value: u64) -> Self {
        let mut b = Self::zero(width);
        b.words[0] = value;
        b.mask_top();
        b
    }

    /// Creates a vector from a signed value, truncating to `width` bits
    /// (two's complement).
    ///
    /// # Panics
    ///
    /// Panics if `width` is out of range (see [`Bits::zero`]).
    pub fn from_i64(width: u32, value: i64) -> Self {
        let mut b = Self::zero(width);
        let v = value as u64;
        b.words[0] = v;
        if value < 0 {
            for w in b.words.iter_mut().skip(1) {
                *w = u64::MAX;
            }
        }
        b.mask_top();
        b
    }

    /// Creates a vector from individual bits, `bits[0]` being the LSB.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is empty or longer than [`Bits::MAX_WIDTH`].
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut b = Self::zero(bits.len() as u32);
        for (i, &bit) in bits.iter().enumerate() {
            if bit {
                b.words[i / 64] |= 1 << (i % 64);
            }
        }
        b
    }

    /// Creates a single-bit vector from a boolean.
    pub fn from_bool(value: bool) -> Self {
        Self::from_u64(1, value as u64)
    }

    /// The width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The low 64 bits, zero-extended if the vector is narrower.
    pub fn to_u64(&self) -> u64 {
        self.words[0]
            & if self.width >= 64 {
                u64::MAX
            } else {
                (1u64 << self.width) - 1
            }
    }

    /// The value interpreted as signed two's complement, sign-extended to
    /// `i64`. For vectors wider than 64 bits only the low 64 bits are used.
    pub fn to_i64(&self) -> i64 {
        let raw = self.words[0];
        if self.width >= 64 {
            raw as i64
        } else if self.bit(self.width - 1) {
            (raw | !((1u64 << self.width) - 1)) as i64
        } else {
            raw as i64
        }
    }

    /// The value interpreted as signed two's complement, widened to `i128`.
    ///
    /// # Panics
    ///
    /// Panics if the vector is wider than 128 bits.
    pub fn to_i128(&self) -> i128 {
        assert!(self.width <= 128, "to_i128 on {}-bit value", self.width);
        let lo = self.words[0] as u128;
        let hi = if self.words.len() > 1 {
            self.words[1] as u128
        } else {
            0
        };
        let raw = lo | (hi << 64);
        if self.bit(self.width - 1) && self.width < 128 {
            (raw | (!0u128 << self.width)) as i128
        } else {
            raw as i128
        }
    }

    /// The value zero-extended to `u128`.
    ///
    /// # Panics
    ///
    /// Panics if the vector is wider than 128 bits.
    pub fn to_u128(&self) -> u128 {
        assert!(self.width <= 128, "to_u128 on {}-bit value", self.width);
        let lo = self.words[0] as u128;
        let hi = if self.words.len() > 1 {
            self.words[1] as u128
        } else {
            0
        };
        lo | (hi << 64)
    }

    /// Reads bit `index` (0 = LSB).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.width()`.
    pub fn bit(&self, index: u32) -> bool {
        assert!(
            index < self.width,
            "bit {index} of {}-bit value",
            self.width
        );
        (self.words[(index / 64) as usize] >> (index % 64)) & 1 == 1
    }

    /// Writes bit `index` (0 = LSB).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.width()`.
    pub fn set_bit(&mut self, index: u32, value: bool) {
        assert!(
            index < self.width,
            "bit {index} of {}-bit value",
            self.width
        );
        let word = &mut self.words[(index / 64) as usize];
        if value {
            *word |= 1 << (index % 64);
        } else {
            *word &= !(1 << (index % 64));
        }
    }

    /// `true` when the value is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// `true` when interpreted as a 1-bit (or wider) boolean: any bit set.
    pub fn to_bool(&self) -> bool {
        !self.is_zero()
    }

    /// The most significant bit — the sign under two's complement.
    pub fn msb(&self) -> bool {
        self.bit(self.width - 1)
    }

    /// Extracts bits `lo..lo + width` as a new vector (Verilog `x[hi:lo]`).
    ///
    /// # Panics
    ///
    /// Panics if the range does not fit in `self` or `width` is zero.
    pub fn slice(&self, lo: u32, width: u32) -> Bits {
        assert!(width >= 1, "zero-width slice");
        assert!(
            lo + width <= self.width,
            "slice [{}+:{}] of {}-bit value",
            lo,
            width,
            self.width
        );
        let mut out = Bits::zero(width);
        for i in 0..width {
            if self.bit(lo + i) {
                out.set_bit(i, true);
            }
        }
        out
    }

    /// Concatenates `self` (as the high part) with `low` (Verilog
    /// `{self, low}`).
    ///
    /// # Panics
    ///
    /// Panics if the combined width exceeds [`Bits::MAX_WIDTH`].
    pub fn concat(&self, low: &Bits) -> Bits {
        let mut out = Bits::zero(self.width + low.width);
        for i in 0..low.width {
            if low.bit(i) {
                out.set_bit(i, true);
            }
        }
        for i in 0..self.width {
            if self.bit(i) {
                out.set_bit(low.width + i, true);
            }
        }
        out
    }

    /// Zero-extends (or truncates) to a new width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is out of range (see [`Bits::zero`]).
    pub fn zext(&self, width: u32) -> Bits {
        let mut out = Bits::zero(width);
        let n = width.min(self.width);
        for i in 0..n {
            if self.bit(i) {
                out.set_bit(i, true);
            }
        }
        out
    }

    /// Sign-extends (or truncates) to a new width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is out of range (see [`Bits::zero`]).
    pub fn sext(&self, width: u32) -> Bits {
        let mut out = self.zext(width);
        if width > self.width && self.msb() {
            for i in self.width..width {
                out.set_bit(i, true);
            }
        }
        out
    }

    /// Truncates to the low `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` exceeds the current width or is zero.
    pub fn trunc(&self, width: u32) -> Bits {
        assert!(width <= self.width, "trunc {} -> {}", self.width, width);
        self.slice(0, width)
    }

    /// Number of one bits (population count).
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Clears every bit in place (no reallocation).
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// Extracts bits `lo..lo + width` as a `u64` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if the range does not fit in `self`, `width` is zero, or
    /// `width` exceeds 64.
    pub fn extract_u64(&self, lo: u32, width: u32) -> u64 {
        assert!((1..=64).contains(&width), "extract_u64 width {width}");
        assert!(
            lo + width <= self.width,
            "extract [{}+:{}] of {}-bit value",
            lo,
            width,
            self.width
        );
        let word = (lo / 64) as usize;
        let shift = lo % 64;
        let mut v = self.words[word] >> shift;
        if shift != 0 && word + 1 < self.words.len() {
            v |= self.words[word + 1] << (64 - shift);
        }
        if width < 64 {
            v &= (1u64 << width) - 1;
        }
        v
    }

    /// Overwrites bits `lo..lo + width` from the low bits of `value`
    /// without allocating.
    ///
    /// # Panics
    ///
    /// Panics if the range does not fit in `self`, `width` is zero, or
    /// `width` exceeds 64.
    pub fn deposit_u64(&mut self, lo: u32, width: u32, value: u64) {
        assert!((1..=64).contains(&width), "deposit_u64 width {width}");
        assert!(
            lo + width <= self.width,
            "deposit [{}+:{}] of {}-bit value",
            lo,
            width,
            self.width
        );
        let masked = if width < 64 {
            value & ((1u64 << width) - 1)
        } else {
            value
        };
        let word = (lo / 64) as usize;
        let shift = lo % 64;
        let lo_mask = if width == 64 && shift == 0 {
            u64::MAX
        } else {
            (((1u128 << width) - 1) << shift) as u64
        };
        self.words[word] = (self.words[word] & !lo_mask) | (masked << shift);
        if shift != 0 && shift + width > 64 {
            let hi_mask = (((1u128 << width) - 1) >> (64 - shift)) as u64;
            self.words[word + 1] = (self.words[word + 1] & !hi_mask) | (masked >> (64 - shift));
        }
    }

    /// The value's little-endian 64-bit storage words (bits above `width`
    /// are always zero). Word-level view behind the simulators' flat wide
    /// stores.
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Overwrites the value from little-endian storage words, masking any
    /// bits above `width` in the top word so the zero-top invariant holds
    /// regardless of the source.
    ///
    /// # Panics
    ///
    /// Panics if `words.len()` differs from the storage word count.
    pub fn copy_from_words(&mut self, words: &[u64]) {
        assert_eq!(words.len(), self.words.len(), "storage word count");
        self.words.copy_from_slice(words);
        self.mask_top();
    }

    pub(crate) fn words_for(width: u32) -> usize {
        width.div_ceil(64) as usize
    }

    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Clears any bits above `width` in the top storage word.
    pub(crate) fn mask_top(&mut self) {
        let rem = self.width % 64;
        if rem != 0 {
            let last = self.words.len() - 1;
            self.words[last] &= (1u64 << rem) - 1;
        }
    }
}

impl Default for Bits {
    /// A single zero bit, the narrowest valid vector.
    fn default() -> Self {
        Bits::zero(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_zero() {
        assert!(Bits::zero(12).is_zero());
        assert_eq!(Bits::zero(100).width(), 100);
    }

    #[test]
    fn ones_has_all_bits() {
        let b = Bits::ones(70);
        assert_eq!(b.count_ones(), 70);
        assert!(b.msb());
    }

    #[test]
    fn from_u64_truncates() {
        assert_eq!(Bits::from_u64(4, 0x1f).to_u64(), 0xf);
    }

    #[test]
    fn from_i64_negative_sign_extends_storage() {
        let b = Bits::from_i64(96, -2);
        assert_eq!(b.to_i64(), -2);
        assert!(b.msb());
    }

    #[test]
    fn signed_round_trip() {
        for v in [-2048i64, -1, 0, 1, 2047] {
            assert_eq!(Bits::from_i64(12, v).to_i64(), v);
        }
    }

    #[test]
    fn i128_round_trip_wide() {
        let b = Bits::from_i64(100, -7);
        assert_eq!(b.to_i128(), -7);
        assert_eq!(Bits::from_u64(100, 42).to_u128(), 42);
    }

    #[test]
    fn bit_access() {
        let mut b = Bits::zero(65);
        b.set_bit(64, true);
        assert!(b.bit(64));
        assert!(!b.bit(0));
        b.set_bit(64, false);
        assert!(b.is_zero());
    }

    #[test]
    fn slice_and_concat_invert() {
        let b = Bits::from_u64(24, 0xabcdef);
        let hi = b.slice(12, 12);
        let lo = b.slice(0, 12);
        assert_eq!(hi.to_u64(), 0xabc);
        assert_eq!(lo.to_u64(), 0xdef);
        assert_eq!(hi.concat(&lo), b);
    }

    #[test]
    fn zext_sext() {
        let b = Bits::from_i64(4, -3); // 0b1101
        assert_eq!(b.zext(8).to_u64(), 0x0d);
        assert_eq!(b.sext(8).to_i64(), -3);
        assert_eq!(b.sext(3).to_u64(), 0b101); // truncation
    }

    #[test]
    fn from_bools_lsb_first() {
        let b = Bits::from_bools(&[true, false, true]);
        assert_eq!(b.to_u64(), 0b101);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_width_rejected() {
        let _ = Bits::zero(0);
    }

    #[test]
    #[should_panic(expected = "slice")]
    fn oob_slice_rejected() {
        let _ = Bits::zero(8).slice(5, 4);
    }

    #[test]
    fn extract_matches_slice() {
        let mut b = Bits::zero(200);
        for i in [0, 1, 63, 64, 65, 97, 130, 199] {
            b.set_bit(i, true);
        }
        for (lo, w) in [
            (0, 64),
            (1, 64),
            (60, 10),
            (64, 1),
            (120, 64),
            (136, 64),
            (190, 10),
        ] {
            assert_eq!(b.extract_u64(lo, w), b.slice(lo, w).to_u64(), "[{lo}+:{w}]");
        }
    }

    #[test]
    fn deposit_round_trips_through_extract() {
        let mut b = Bits::ones(150);
        b.deposit_u64(60, 17, 0x1_5a5a);
        assert_eq!(b.extract_u64(60, 17), 0x1_5a5a);
        // Neighbours untouched.
        assert_eq!(b.extract_u64(0, 60), (1u64 << 60) - 1);
        assert_eq!(b.extract_u64(77, 64), u64::MAX);
        b.deposit_u64(0, 64, 0xdead_beef);
        assert_eq!(b.extract_u64(0, 64), 0xdead_beef);
        // Values wider than the field are truncated.
        b.deposit_u64(100, 4, 0xff);
        assert_eq!(b.extract_u64(100, 4), 0xf);
    }

    #[test]
    #[should_panic(expected = "extract")]
    fn extract_oob_rejected() {
        let _ = Bits::zero(32).extract_u64(20, 20);
    }

    #[test]
    fn default_is_one_bit_zero() {
        let b = Bits::default();
        assert_eq!(b.width(), 1);
        assert!(b.is_zero());
    }
}

//! Wrapping arithmetic over [`Bits`], matching HDL semantics.

use crate::Bits;

impl Bits {
    /// Wrapping addition modulo `2^width`.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn add(&self, rhs: &Bits) -> Bits {
        self.check_width(rhs, "add");
        let mut out = Bits::zero(self.width());
        let mut carry = 0u64;
        for i in 0..out.words().len() {
            let (s1, c1) = self.words()[i].overflowing_add(rhs.words()[i]);
            let (s2, c2) = s1.overflowing_add(carry);
            out.words_mut()[i] = s2;
            carry = (c1 as u64) + (c2 as u64);
        }
        out.mask_top();
        out
    }

    /// Wrapping subtraction modulo `2^width`.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn sub(&self, rhs: &Bits) -> Bits {
        self.add(&rhs.neg())
    }

    /// Two's-complement negation.
    pub fn neg(&self) -> Bits {
        let one = Bits::from_u64(self.width(), 1);
        self.not().add(&one)
    }

    /// Wrapping multiplication: the full product of the two *signed* values
    /// truncated to `out_width` bits. Because two's-complement wrapping makes
    /// the low `out_width` bits of a signed and unsigned product identical
    /// when `out_width <= w1 + w2`, this serves both interpretations.
    ///
    /// # Panics
    ///
    /// Panics if `out_width` is out of range (see [`Bits::zero`]).
    pub fn mul(&self, rhs: &Bits, out_width: u32) -> Bits {
        // The low `out_width` bits of a product depend only on the low
        // `out_width` bits of each operand, so sign-extend (or truncate)
        // both and multiply word by word modulo 2^out_width.
        let a = self.sext(out_width);
        let b = rhs.sext(out_width);
        let mut out = Bits::zero(out_width);
        let n = out.words().len();
        let acc = out.words_mut();
        for (i, &x) in a.words().iter().enumerate() {
            let mut carry = 0u128;
            for (j, &y) in b.words()[..n - i].iter().enumerate() {
                // x*y + acc + carry <= (2^64-1)^2 + 2*(2^64-1) < 2^128.
                let t = u128::from(x) * u128::from(y) + u128::from(acc[i + j]) + carry;
                acc[i + j] = t as u64;
                carry = t >> 64;
            }
        }
        out.mask_top();
        out
    }

    /// Unsigned division, HDL-style: division by zero yields all-ones
    /// (the conventional X-avoiding model).
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn div_u(&self, rhs: &Bits) -> Bits {
        self.check_width(rhs, "div_u");
        if rhs.is_zero() {
            return Bits::ones(self.width());
        }
        if self.width() <= 64 {
            return Bits::from_u64(self.width(), self.to_u64() / rhs.to_u64());
        }
        self.long_div(rhs).0
    }

    /// Unsigned remainder; remainder by zero yields the dividend.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn rem_u(&self, rhs: &Bits) -> Bits {
        self.check_width(rhs, "rem_u");
        if rhs.is_zero() {
            return self.clone();
        }
        if self.width() <= 64 {
            return Bits::from_u64(self.width(), self.to_u64() % rhs.to_u64());
        }
        self.long_div(rhs).1
    }

    /// Shift-subtract long division of two equal-width unsigned values,
    /// `rhs` nonzero: `(quotient, remainder)`.
    fn long_div(&self, rhs: &Bits) -> (Bits, Bits) {
        let mut q = Bits::zero(self.width());
        let mut r = Bits::zero(self.width());
        for i in (0..self.width()).rev() {
            // r = 2r + bit i. The bit shifted out of the top means r now
            // exceeds the width, so it is certainly >= rhs; the wrapping
            // subtraction below then still yields the exact remainder,
            // which is below rhs.
            let overflow = r.msb();
            let mut carry = u64::from(self.bit(i));
            for w in r.words_mut() {
                let out = *w >> 63;
                *w = *w << 1 | carry;
                carry = out;
            }
            r.mask_top();
            if overflow || r.cmp_u(rhs).is_ge() {
                let mut borrow = false;
                for (w, &d) in r.words_mut().iter_mut().zip(rhs.words()) {
                    let (t, b1) = w.overflowing_sub(d);
                    let (t, b2) = t.overflowing_sub(u64::from(borrow));
                    *w = t;
                    borrow = b1 || b2;
                }
                r.mask_top();
                q.set_bit(i, true);
            }
        }
        (q, r)
    }

    pub(crate) fn check_width(&self, rhs: &Bits, op: &str) {
        assert_eq!(
            self.width(),
            rhs.width(),
            "{op}: width mismatch {} vs {}",
            self.width(),
            rhs.width()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_wraps() {
        let a = Bits::from_u64(8, 0xff);
        let b = Bits::from_u64(8, 1);
        assert_eq!(a.add(&b).to_u64(), 0);
    }

    #[test]
    fn add_carries_across_words() {
        let a = Bits::from_u64(96, u64::MAX);
        let b = Bits::from_u64(96, 1);
        let s = a.add(&b);
        assert_eq!(s.to_u128(), 1u128 << 64);
    }

    #[test]
    fn sub_and_neg() {
        let a = Bits::from_i64(12, 5);
        let b = Bits::from_i64(12, 9);
        assert_eq!(a.sub(&b).to_i64(), -4);
        assert_eq!(b.neg().to_i64(), -9);
    }

    #[test]
    fn mul_signed_truncated() {
        let a = Bits::from_i64(16, -300);
        let b = Bits::from_i64(16, 181); // IDCT constant W7-ish scale
        assert_eq!(a.mul(&b, 32).to_i64(), -54300);
        // Wrapping at narrow output widths keeps the low bits.
        assert_eq!(a.mul(&b, 8).to_u64(), ((-54300i64) as u64) & 0xff);
    }

    #[test]
    fn mul_wide_operands() {
        let a = Bits::from_i64(96, -123456789);
        let b = Bits::from_i64(96, 987654321);
        assert_eq!(a.mul(&b, 128).to_i128(), -123456789i128 * 987654321);
    }

    #[test]
    fn mul_sign_extends_past_256_bits() {
        let minus_one = Bits::ones(8);
        let one = Bits::from_u64(2, 1);
        assert_eq!(minus_one.mul(&one, 300), Bits::ones(300));
        let (a, b) = (Bits::from_u64(129, 3), Bits::from_u64(129, 5));
        assert_eq!(a.mul(&b, 129), Bits::from_u64(129, 15));
    }

    #[test]
    fn div_rem_wide() {
        let a = Bits::ones(200);
        let b = Bits::from_u64(200, 3);
        let q = a.div_u(&b);
        assert_eq!(q.mul(&b, 200), a, "2^200 - 1 is a multiple of 3");
        assert!(a.rem_u(&b).is_zero());
        let seven = Bits::from_u64(130, 7).shl(100);
        let two = Bits::from_u64(130, 2).shl(100);
        assert_eq!(seven.div_u(&two), Bits::from_u64(130, 3));
        assert_eq!(seven.rem_u(&two), Bits::from_u64(130, 1).shl(100));
        assert_eq!(a.div_u(&Bits::zero(200)), Bits::ones(200));
    }

    #[test]
    fn div_rem_basics() {
        let a = Bits::from_u64(16, 100);
        let b = Bits::from_u64(16, 7);
        assert_eq!(a.div_u(&b).to_u64(), 14);
        assert_eq!(a.rem_u(&b).to_u64(), 2);
        assert_eq!(a.div_u(&Bits::zero(16)).to_u64(), 0xffff);
        assert_eq!(a.rem_u(&Bits::zero(16)).to_u64(), 100);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn mismatched_widths_rejected() {
        let _ = Bits::zero(8).add(&Bits::zero(9));
    }

    use proptest::prelude::*;

    /// A value of width `w` from raw words: random, all-ones (-1), one, or a
    /// single low word, so signs, carries and short operands all show up.
    fn wide_value(max: u32) -> impl Strategy<Value = Bits> {
        (1u32..=max).prop_flat_map(|w| {
            let n = Bits::words_for(w);
            (proptest::collection::vec(any::<u64>(), n), 0u8..5).prop_map(move |(words, kind)| {
                match kind {
                    0 => Bits::ones(w),
                    1 => Bits::from_u64(w, 1),
                    2 => Bits::from_u64(w, words[0]),
                    _ => {
                        let mut b = Bits::zero(w);
                        b.copy_from_words(&words);
                        b
                    }
                }
            })
        })
    }

    /// Shift-and-add multiply: the exact signed product at `w1 + w2` bits
    /// (or `out` when wider), then the low `out` bits.
    fn mul_reference(a: &Bits, b: &Bits, out: u32) -> Bits {
        let full = (a.width() + b.width()).max(out);
        let (a, b) = (a.sext(full), b.sext(full));
        let mut acc = Bits::zero(full);
        for i in 0..full {
            if b.bit(i) {
                acc = acc.add(&a.shl(i));
            }
        }
        acc.slice(0, out)
    }

    /// Restoring shift-subtract division one bit wider than the operands, so
    /// the running remainder never overflows: `(quotient, remainder)`.
    fn div_reference(a: &Bits, b: &Bits) -> (Bits, Bits) {
        let w = a.width();
        let d = b.zext(w + 1);
        let mut r = Bits::zero(w + 1);
        let mut q = Bits::zero(w);
        for i in (0..w).rev() {
            r = r.shl(1);
            r.set_bit(0, a.bit(i));
            if !r.lt_u(&d).to_bool() {
                r = r.sub(&d);
                q.set_bit(i, true);
            }
        }
        (q, r.slice(0, w))
    }

    proptest! {
        #[test]
        fn mul_matches_shift_and_add_at_any_width(
            a in wide_value(300),
            b in wide_value(300),
            out in 1u32..=300,
        ) {
            prop_assert_eq!(a.mul(&b, out), mul_reference(&a, &b, out));
        }

        #[test]
        fn div_rem_match_shift_subtract_at_any_width(
            (a, b) in wide_value(300).prop_flat_map(|a| {
                let w = a.width();
                (Just(a), wide_value(w).prop_map(move |b| b.zext(w)))
            }),
        ) {
            if b.is_zero() {
                prop_assert_eq!(a.div_u(&b), Bits::ones(a.width()));
                prop_assert_eq!(a.rem_u(&b), a);
            } else {
                let (q, r) = div_reference(&a, &b);
                prop_assert_eq!(a.div_u(&b), q);
                prop_assert_eq!(a.rem_u(&b), r);
            }
        }
    }
}

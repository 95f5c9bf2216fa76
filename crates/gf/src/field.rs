//! A typed wrapper for single GF(2^8) field elements.

use core::fmt;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::tables;

/// An element of GF(2^8).
///
/// Arithmetic is implemented through the standard operator traits; addition
/// and subtraction are both XOR (characteristic 2), and multiplication /
/// division use the precomputed log/exp tables in [`crate::tables`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Gf256(pub u8);

impl Gf256 {
    /// The additive identity.
    pub const ZERO: Gf256 = Gf256(0);
    /// The multiplicative identity.
    pub const ONE: Gf256 = Gf256(1);
    /// The generator α of the multiplicative group.
    pub const GENERATOR: Gf256 = Gf256(tables::GENERATOR);

    /// Wraps a raw byte as a field element.
    #[inline]
    pub const fn new(value: u8) -> Self {
        Gf256(value)
    }

    /// Returns the raw byte value of this element.
    #[inline]
    pub const fn value(self) -> u8 {
        self.0
    }

    /// Returns `true` if this is the additive identity.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Returns the multiplicative inverse, or `None` for zero.
    #[inline]
    pub fn inverse(self) -> Option<Gf256> {
        tables::inverse(self.0).map(Gf256)
    }

    /// Raises this element to the power `e`.
    #[inline]
    pub fn pow(self, e: u32) -> Gf256 {
        Gf256(tables::pow(self.0, e))
    }
}

impl fmt::Debug for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gf256(0x{:02x})", self.0)
    }
}

impl fmt::Display for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:02x}", self.0)
    }
}

impl From<u8> for Gf256 {
    fn from(value: u8) -> Self {
        Gf256(value)
    }
}

impl From<Gf256> for u8 {
    fn from(value: Gf256) -> Self {
        value.0
    }
}

// In GF(2^8) addition and subtraction are both XOR; clippy flags `^`
// inside arithmetic impls, but here it is the field operation itself.
#[allow(clippy::suspicious_arithmetic_impl)]
impl Add for Gf256 {
    type Output = Gf256;
    #[inline]
    fn add(self, rhs: Gf256) -> Gf256 {
        Gf256(self.0 ^ rhs.0)
    }
}

// In GF(2^8) addition and subtraction are both XOR; clippy flags `^`
// inside arithmetic impls, but here it is the field operation itself.
#[allow(clippy::suspicious_op_assign_impl)]
impl AddAssign for Gf256 {
    #[inline]
    fn add_assign(&mut self, rhs: Gf256) {
        self.0 ^= rhs.0;
    }
}

// In GF(2^8) addition and subtraction are both XOR; clippy flags `^`
// inside arithmetic impls, but here it is the field operation itself.
#[allow(clippy::suspicious_arithmetic_impl)]
impl Sub for Gf256 {
    type Output = Gf256;
    #[inline]
    fn sub(self, rhs: Gf256) -> Gf256 {
        // Subtraction equals addition in characteristic 2.
        Gf256(self.0 ^ rhs.0)
    }
}

// In GF(2^8) addition and subtraction are both XOR; clippy flags `^`
// inside arithmetic impls, but here it is the field operation itself.
#[allow(clippy::suspicious_op_assign_impl)]
impl SubAssign for Gf256 {
    #[inline]
    fn sub_assign(&mut self, rhs: Gf256) {
        self.0 ^= rhs.0;
    }
}

impl Neg for Gf256 {
    type Output = Gf256;
    #[inline]
    fn neg(self) -> Gf256 {
        self
    }
}

impl Mul for Gf256 {
    type Output = Gf256;
    #[inline]
    fn mul(self, rhs: Gf256) -> Gf256 {
        Gf256(tables::mul(self.0, rhs.0))
    }
}

impl MulAssign for Gf256 {
    #[inline]
    fn mul_assign(&mut self, rhs: Gf256) {
        self.0 = tables::mul(self.0, rhs.0);
    }
}

impl Div for Gf256 {
    type Output = Gf256;
    #[inline]
    fn div(self, rhs: Gf256) -> Gf256 {
        Gf256(tables::div(self.0, rhs.0))
    }
}

impl DivAssign for Gf256 {
    #[inline]
    fn div_assign(&mut self, rhs: Gf256) {
        self.0 = tables::div(self.0, rhs.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identities() {
        let a = Gf256::new(0x9c);
        assert_eq!(a + Gf256::ZERO, a);
        assert_eq!(a * Gf256::ONE, a);
        assert_eq!(a - a, Gf256::ZERO);
        assert_eq!(-a, a);
    }

    #[test]
    fn generator_has_full_order() {
        let mut x = Gf256::ONE;
        for i in 1..=255u32 {
            x *= Gf256::GENERATOR;
            if i < 255 {
                assert_ne!(x, Gf256::ONE, "order divides {i}");
            }
        }
        assert_eq!(x, Gf256::ONE);
    }

    #[test]
    fn inverse_of_zero_is_none() {
        assert_eq!(Gf256::ZERO.inverse(), None);
    }

    #[test]
    fn alpha_pow_matches_repeated_multiplication() {
        let mut x = Gf256::ONE;
        for e in 0..600u32 {
            assert_eq!(Gf256::GENERATOR.pow(e), x);
            x *= Gf256::GENERATOR;
        }
    }

    #[test]
    fn assign_operators_match_binary_operators() {
        let a = Gf256::new(0x37);
        let b = Gf256::new(0xd4);
        let mut x = a;
        x += b;
        assert_eq!(x, a + b);
        x = a;
        x -= b;
        assert_eq!(x, a - b);
        x = a;
        x *= b;
        assert_eq!(x, a * b);
        x = a;
        x /= b;
        assert_eq!(x, a / b);
    }

    proptest! {
        #[test]
        fn addition_is_commutative_and_associative(a: u8, b: u8, c: u8) {
            let (a, b, c) = (Gf256::new(a), Gf256::new(b), Gf256::new(c));
            prop_assert_eq!(a + b, b + a);
            prop_assert_eq!((a + b) + c, a + (b + c));
        }

        #[test]
        fn multiplication_is_commutative_and_associative(a: u8, b: u8, c: u8) {
            let (a, b, c) = (Gf256::new(a), Gf256::new(b), Gf256::new(c));
            prop_assert_eq!(a * b, b * a);
            prop_assert_eq!((a * b) * c, a * (b * c));
        }

        #[test]
        fn multiplication_distributes_over_addition(a: u8, b: u8, c: u8) {
            let (a, b, c) = (Gf256::new(a), Gf256::new(b), Gf256::new(c));
            prop_assert_eq!(a * (b + c), a * b + a * c);
        }

        #[test]
        fn nonzero_elements_have_inverses(a in 1u8..=255) {
            let a = Gf256::new(a);
            let inv = a.inverse().unwrap();
            prop_assert_eq!(a * inv, Gf256::ONE);
        }

        #[test]
        fn division_is_multiplication_by_inverse(a: u8, b in 1u8..=255) {
            let a = Gf256::new(a);
            let b = Gf256::new(b);
            prop_assert_eq!(a / b, a * b.inverse().unwrap());
        }

        #[test]
        fn pow_is_repeated_multiplication(a: u8, e in 0u32..64) {
            let a = Gf256::new(a);
            let mut expected = Gf256::ONE;
            for _ in 0..e {
                expected *= a;
            }
            prop_assert_eq!(a.pow(e), expected);
        }
    }
}

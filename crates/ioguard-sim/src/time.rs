//! Strongly-typed time base for the NoC.
//!
//! The NoC and I/O controllers are clocked in *cycles* (100 MHz on the
//! VC709), while the hypervisor schedules in *time slots* (Sec. III-A),
//! which the workspace carries as plain `u64`. [`Cycles`] keeps cycle
//! counts from mixing silently with slot counts.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

macro_rules! time_newtype {
    ($(#[$meta:meta])* $name:ident, $unit:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(u64);

        impl $name {
            /// The zero point of this time base.
            pub const ZERO: Self = Self(0);
            /// The largest representable instant; used as an "infinite"
            /// deadline sentinel.
            pub const MAX: Self = Self(u64::MAX);

            /// Creates a value of this time base from a raw tick count.
            #[inline]
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// Returns the raw tick count.
            #[inline]
            pub const fn raw(self) -> u64 {
                self.0
            }

            /// Returns the larger of `self` and `other`.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns the smaller of `self` and `other`.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{} {}", self.0, $unit)
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Mul<u64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: u64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Div<u64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: u64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div for $name {
            type Output = u64;
            /// Integer division of two instants yields a dimensionless count.
            #[inline]
            fn div(self, rhs: Self) -> u64 {
                self.0 / rhs.0
            }
        }

        impl Rem for $name {
            type Output = Self;
            #[inline]
            fn rem(self, rhs: Self) -> Self {
                Self(self.0 % rhs.0)
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                iter.fold(Self::ZERO, Add::add)
            }
        }

        impl From<u64> for $name {
            #[inline]
            fn from(raw: u64) -> Self {
                Self(raw)
            }
        }

        impl From<$name> for u64 {
            #[inline]
            fn from(v: $name) -> u64 {
                v.0
            }
        }
    };
}

time_newtype!(
    /// Hardware clock cycles (the NoC and I/O controllers tick in cycles).
    Cycles,
    "cyc"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_arithmetic_roundtrip() {
        let a = Cycles::new(40);
        let b = Cycles::new(2);
        assert_eq!(a + b, Cycles::new(42));
        assert_eq!(a - b, Cycles::new(38));
        assert_eq!(a * 2, Cycles::new(80));
        assert_eq!(a / 2, Cycles::new(20));
        assert_eq!(a / b, 20);
        assert_eq!(a % Cycles::new(7), Cycles::new(5));
    }

    #[test]
    fn ordering_and_extremes() {
        assert!(Cycles::ZERO < Cycles::new(1));
        assert!(Cycles::new(1) < Cycles::MAX);
        assert_eq!(Cycles::ZERO, Cycles::default());
    }

    #[test]
    fn min_max_helpers() {
        assert_eq!(Cycles::new(3).max(Cycles::new(7)), Cycles::new(7));
        assert_eq!(Cycles::new(3).min(Cycles::new(7)), Cycles::new(3));
    }

    #[test]
    fn sum_of_cycles() {
        let total: Cycles = [1u64, 2, 3].into_iter().map(Cycles::new).sum();
        assert_eq!(total, Cycles::new(6));
    }

    #[test]
    fn display_includes_unit() {
        assert_eq!(Cycles::new(7).to_string(), "7 cyc");
    }

    #[test]
    fn conversion_from_into_u64() {
        let c: Cycles = 9u64.into();
        assert_eq!(u64::from(c), 9);
    }
}

//! Division-free modulo and quotient by a runtime constant (strength
//! reduction for the software pMod model and the timing models).
//!
//! The paper's §3.1 point is that `a mod p` needs no divider in
//! hardware; the software model should not pay one either. [`FastMod`]
//! precomputes the 128-bit fixed-point reciprocal of the divisor once
//! (per indexer construction) and reduces every subsequent address with
//! two multiplies — Lemire, Kaser & Kurz, *Faster remainder by direct
//! computation* (2019). The same reciprocal yields the quotient with one
//! multiply-high, exact because its 128 fraction bits cover the 64-bit
//! dividend plus `log2 d` bits of the divisor. Both are exact for
//! **all** 64-bit dividends and any nonzero divisor, so they substitute
//! for `%` and `/` bit-for-bit; the `check` battery fuzzes that
//! equivalence.

/// Precomputed-reciprocal division: `reduce(x) == x % d` and
/// `quotient(x) == x / d` for all `x`.
///
/// # Examples
///
/// ```
/// use primecache_core::index::FastMod;
///
/// let m = FastMod::new(2039);
/// assert_eq!(m.reduce(2048), 9);
/// assert_eq!(m.quotient(5000), 2);
/// assert_eq!(m.div_rem(5000), (2, 922));
/// assert_eq!(m.divisor(), 2039);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FastMod {
    d: u64,
    /// `ceil(2^128 / d) = floor(u128::MAX / d) + 1`; zero encodes `d == 1`
    /// (whose true reciprocal 2^128 does not fit), for which every
    /// remainder is 0 and the multiply-by-zero below yields exactly that.
    m: u128,
}

impl FastMod {
    /// Precomputes the reciprocal of `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    #[must_use]
    pub fn new(d: u64) -> Self {
        assert!(d > 0, "modulus must be nonzero");
        let m = if d == 1 {
            0
        } else {
            u128::MAX / u128::from(d) + 1
        };
        Self { d, m }
    }

    /// The divisor this reciprocal was built for.
    #[must_use]
    pub fn divisor(&self) -> u64 {
        self.d
    }

    /// Computes `x % d` with two multiplies and no division.
    ///
    /// `lowbits = m * x mod 2^128` is the fractional part of `x / d` in
    /// 128-bit fixed point; multiplying it by `d` and keeping the high
    /// 128 bits recovers the remainder.
    #[inline]
    #[must_use]
    pub fn reduce(&self, x: u64) -> u64 {
        let lowbits = self.m.wrapping_mul(u128::from(x));
        mulhi_u128_by_u64(lowbits, self.d)
    }

    /// Computes `x / d` with one multiply-high and no division:
    /// `floor(m * x / 2^128)`. The `d == 1` encoding (`m == 0`) is the
    /// identity.
    #[inline]
    #[must_use]
    pub fn quotient(&self, x: u64) -> u64 {
        if self.m == 0 {
            x
        } else {
            mulhi_u128_by_u64(self.m, x)
        }
    }

    /// Computes `(x / d, x % d)`: the quotient, then the remainder by one
    /// multiply-subtract.
    #[inline]
    #[must_use]
    pub fn div_rem(&self, x: u64) -> (u64, u64) {
        let q = self.quotient(x);
        (q, x - q * self.d)
    }
}

/// High 64 bits (beyond the 128th) of the 192-bit product `a * b`,
/// truncated to the range of `b` — i.e. `floor(a * b / 2^128)`.
///
/// Built from two 64×64→128 multiplies since Rust has no u256.
#[inline]
#[allow(clippy::cast_possible_truncation)] // the truncations select 64-bit limbs
fn mulhi_u128_by_u64(a: u128, b: u64) -> u64 {
    let a_lo = a as u64;
    let a_hi = (a >> 64) as u64;
    let b = u128::from(b);
    let lo = u128::from(a_lo) * b;
    let hi = u128::from(a_hi) * b + (lo >> 64);
    (hi >> 64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_native_remainder_on_table1_primes() {
        for d in [251u64, 509, 1021, 2039, 4093, 8191, 16381] {
            let m = FastMod::new(d);
            for x in (0..2_000_000u64).step_by(997) {
                assert_eq!(m.reduce(x), x % d, "x={x} d={d}");
            }
        }
    }

    #[test]
    fn matches_native_remainder_at_extremes() {
        for d in [1u64, 2, 3, 2039, u64::MAX - 1, u64::MAX] {
            let m = FastMod::new(d);
            for x in [
                0u64,
                1,
                d - 1,
                d,
                d.saturating_add(1),
                u64::MAX - 1,
                u64::MAX,
            ] {
                assert_eq!(m.reduce(x), x % d, "x={x} d={d}");
            }
        }
    }

    #[test]
    fn quotient_matches_native_division_at_extremes() {
        for d in [1u64, 2, 3, 6, u64::MAX] {
            let m = FastMod::new(d);
            for x in [0u64, d - 1, d, u64::MAX] {
                assert_eq!(m.quotient(x), x / d, "x={x} d={d}");
                assert_eq!(m.div_rem(x), (x / d, x % d), "x={x} d={d}");
            }
        }
    }

    #[test]
    fn divisor_one_always_reduces_to_zero() {
        let m = FastMod::new(1);
        for x in [0u64, 1, 12345, u64::MAX] {
            assert_eq!(m.reduce(x), 0);
        }
    }

    #[test]
    fn pseudorandom_fuzz_against_native() {
        // Deterministic splitmix-style sweep over divisors and dividends.
        let mut z = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        };
        for _ in 0..10_000 {
            let d = next() | 1; // nonzero
            let m = FastMod::new(d);
            for _ in 0..10 {
                let x = next();
                assert_eq!(m.reduce(x), x % d, "x={x} d={d}");
                assert_eq!(m.quotient(x), x / d, "x={x} d={d}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "modulus must be nonzero")]
    fn zero_divisor_rejected() {
        let _ = FastMod::new(0);
    }
}

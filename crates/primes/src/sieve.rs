//! Sieve of Eratosthenes for bulk prime enumeration.

/// A sieve of Eratosthenes over `[0, limit)`.
///
/// Used by the workload generators and the displacement-factor ablation to
/// enumerate candidate prime factors cheaply.
///
/// # Examples
///
/// ```
/// use primecache_primes::Sieve;
/// let sieve = Sieve::new(100);
/// assert!(sieve.is_prime(97));
/// assert_eq!(sieve.iter().take(5).collect::<Vec<_>>(), [2, 3, 5, 7, 11]);
/// ```
#[derive(Debug, Clone)]
pub struct Sieve {
    limit: usize,
    composite: Vec<bool>,
}

impl Sieve {
    /// Builds a sieve covering values in `[0, limit)`.
    #[must_use]
    pub fn new(limit: usize) -> Self {
        let mut composite = vec![false; limit.max(2)];
        composite[0] = true;
        if limit > 1 {
            composite[1] = true;
        }
        let mut i = 2usize;
        while i * i < limit {
            if !composite[i] {
                let mut j = i * i;
                while j < limit {
                    composite[j] = true;
                    j += i;
                }
            }
            i += 1;
        }
        Self { limit, composite }
    }

    /// Returns `true` when `n` is prime.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not below the sieve's limit.
    #[must_use]
    pub fn is_prime(&self, n: usize) -> bool {
        assert!(n < self.limit, "{n} outside sieve range {}", self.limit);
        !self.composite[n]
    }

    /// Iterates over the primes in the sieved range, ascending.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.composite
            .iter()
            .enumerate()
            .filter(|(_, &c)| !c)
            .map(|(i, _)| i as u64)
            .filter(move |&i| (i as usize) < self.limit)
    }
}

/// Collects all primes strictly below `limit`.
///
/// # Examples
///
/// ```
/// use primecache_primes::primes_below;
/// assert_eq!(primes_below(12), vec![2, 3, 5, 7, 11]);
/// ```
#[must_use]
pub fn primes_below(limit: usize) -> Vec<u64> {
    Sieve::new(limit).iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::is_prime;

    #[test]
    fn agrees_with_miller_rabin() {
        let sieve = Sieve::new(5000);
        for n in 0..5000usize {
            assert_eq!(sieve.is_prime(n), is_prime(n as u64), "n = {n}");
        }
    }

    #[test]
    fn prime_counts_match_pi_function() {
        // pi(10^k) reference values.
        assert_eq!(primes_below(10).len(), 4);
        assert_eq!(primes_below(100).len(), 25);
        assert_eq!(primes_below(1_000).len(), 168);
        assert_eq!(primes_below(10_000).len(), 1_229);
    }

    #[test]
    fn tiny_sieves_do_not_panic() {
        assert!(primes_below(0).is_empty());
        assert!(primes_below(1).is_empty());
        assert!(primes_below(2).is_empty());
        assert_eq!(primes_below(3), vec![2]);
    }
}

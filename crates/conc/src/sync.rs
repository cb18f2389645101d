//! Production backend: `#[inline]` wrappers over `std::sync`.
//!
//! Every method forwards directly to the `std` primitive the
//! pre-facade code used, so a protocol instantiated with
//! [`StdBackend`] compiles to the same machine code as before the
//! port — the throughput gate (`BENCH_baseline.json`) pins this.

use crate::api::{self, Backend, JoinApi, MutexApi, Panicked};

/// The production sync backend.
#[derive(Debug, Clone, Copy)]
pub enum StdBackend {}

/// Scoped-access mutex (wraps [`std::sync::Mutex`]).
///
/// Poisoning is absorbed: a panic inside `with` on another thread does
/// not cascade into every later accessor — the sweep scheduler's slot
/// protocol treats the data as valid (each slot is written exactly
/// once, which the model checker verifies).
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates a mutex.
    #[must_use]
    pub fn new(value: T) -> Self {
        Self(std::sync::Mutex::new(value))
    }

    /// Consumes the mutex, returning the protected value.
    #[must_use]
    pub fn into_inner(self) -> T {
        self.0
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl<T: Send> MutexApi<T> for Mutex<T> {
    #[inline]
    fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let mut guard = self
            .0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        f(&mut guard)
    }
}

/// Atomic claim counter (wraps [`std::sync::atomic::AtomicUsize`]).
#[derive(Debug, Default)]
pub struct AtomicUsize(std::sync::atomic::AtomicUsize);

impl AtomicUsize {
    /// Creates a counter.
    #[must_use]
    pub fn new(value: usize) -> Self {
        Self(std::sync::atomic::AtomicUsize::new(value))
    }
}

impl api::AtomicUsizeApi for AtomicUsize {
    #[inline]
    fn fetch_add(&self, n: usize) -> usize {
        self.0.fetch_add(n, std::sync::atomic::Ordering::Relaxed)
    }

    #[inline]
    fn load(&self) -> usize {
        self.0.load(std::sync::atomic::Ordering::Acquire)
    }

    #[inline]
    fn store(&self, value: usize) {
        self.0.store(value, std::sync::atomic::Ordering::Release)
    }
}

/// Thread handle (wraps [`std::thread::JoinHandle`]).
#[derive(Debug)]
pub struct JoinHandle(std::thread::JoinHandle<()>);

impl JoinApi for JoinHandle {
    #[inline]
    fn join(self) -> Result<(), Panicked> {
        self.0.join().map_err(|_| Panicked)
    }
}

impl Backend for StdBackend {
    type Mutex<T: Send + 'static> = Mutex<T>;
    type AtomicUsize = AtomicUsize;
    type JoinHandle = JoinHandle;

    #[inline]
    fn mutex<T: Send + 'static>(value: T) -> Mutex<T> {
        Mutex::new(value)
    }

    #[inline]
    fn atomic_usize(value: usize) -> AtomicUsize {
        AtomicUsize::new(value)
    }

    fn spawn<F: FnOnce() + Send + 'static>(name: &str, f: F) -> JoinHandle {
        JoinHandle(
            std::thread::Builder::new()
                .name(name.to_owned())
                .spawn(f)
                .expect("spawn facade thread"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::AtomicUsizeApi;

    #[test]
    fn mutex_with_and_into_inner() {
        let m = Mutex::new(5u64);
        m.with(|v| *v += 1);
        assert_eq!(m.into_inner(), 6);
    }

    #[test]
    fn atomic_counter_claims_unique_indices() {
        let a = AtomicUsize::new(0);
        assert_eq!(a.fetch_add(1), 0);
        assert_eq!(a.fetch_add(1), 1);
        assert_eq!(a.load(), 2);
        a.store(9);
        assert_eq!(a.load(), 9);
    }

    #[test]
    fn join_reports_panics_without_propagating() {
        let h = StdBackend::spawn("boom", || panic!("contained"));
        assert_eq!(h.join(), Err(Panicked));
    }
}

//! The sync facade: one trait family, two backends.
//!
//! Production code (the sweep scheduler) is written against these
//! traits and instantiated with
//! [`crate::sync::StdBackend`], whose methods are `#[inline]` wrappers
//! over `std` — the compiled protocol is exactly the pre-facade code.
//! The model checker instantiates the *same* protocol source with
//! [`crate::model::ModelBackend`], whose primitives hand every
//! operation to a cooperative scheduler that explores interleavings.

/// A mutex that only exposes scoped access, so a lock can never be held
/// across another facade operation.
pub trait MutexApi<T>: Sync {
    /// Runs `f` with the lock held.
    fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R;
}

/// The atomic claim counter of the work-stealing sweep scheduler.
///
/// `fetch_add` is the only operation the shipped protocol needs; it uses
/// relaxed ordering in the `std` backend (the counter conveys no
/// happens-before edges — slot hand-off is through the slot mutexes).
/// The model backend is sequentially consistent: the checker explores
/// thread interleavings, not weak-memory reorderings.
pub trait AtomicUsizeApi: Sync {
    /// Atomically adds `n`, returning the previous value.
    fn fetch_add(&self, n: usize) -> usize;
    /// Reads the current value.
    fn load(&self) -> usize;
    /// Overwrites the current value.
    fn store(&self, value: usize);
}

/// The spawned thread panicked (or, under the model, was torn down).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Panicked;

/// Handle to a spawned thread.
pub trait JoinApi {
    /// Blocks until the thread finishes.
    ///
    /// # Errors
    ///
    /// [`Panicked`] when the thread unwound instead of returning; the
    /// panic is contained, never propagated into the joiner.
    fn join(self) -> Result<(), Panicked>;
}

/// A complete sync backend: the associated types protocols are generic
/// over. Implemented by [`crate::sync::StdBackend`] (production) and
/// [`crate::model::ModelBackend`] (schedule-exhaustive verification).
pub trait Backend: Sized + 'static {
    /// Scoped-access mutex.
    type Mutex<T: Send + 'static>: MutexApi<T>;
    /// Atomic claim counter.
    type AtomicUsize: AtomicUsizeApi;
    /// Thread handle returned by [`Backend::spawn`].
    type JoinHandle: JoinApi;

    /// Creates a mutex.
    fn mutex<T: Send + 'static>(value: T) -> Self::Mutex<T>;

    /// Creates an atomic counter.
    fn atomic_usize(value: usize) -> Self::AtomicUsize;

    /// Spawns a named thread.
    fn spawn<F: FnOnce() + Send + 'static>(name: &str, f: F) -> Self::JoinHandle;
}

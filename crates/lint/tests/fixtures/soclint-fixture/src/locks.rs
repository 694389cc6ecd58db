//! Lock-order fixture: two paths acquire the same pair of locks in
//! opposite orders — the classic AB/BA deadlock shape — and one holds a
//! lock across a device that may wait.

use soclint_fixture_b::Device;
use std::cell::{RefCell, RefMut};

/// Minimal lock stand-in so the fixture compiles without the workspace
/// shim; soclint's edge extraction is lexical and only sees `.lock()`.
pub struct FixMutex<T>(RefCell<T>);

impl<T> FixMutex<T> {
    pub fn with(value: T) -> FixMutex<T> {
        FixMutex(RefCell::new(value))
    }

    pub fn lock(&self) -> RefMut<'_, T> {
        self.0.borrow_mut()
    }
}

pub struct Pair {
    alpha: FixMutex<u64>,
    beta: FixMutex<u64>,
}

impl Pair {
    pub fn with(a: u64, b: u64) -> Pair {
        Pair { alpha: FixMutex::with(a), beta: FixMutex::with(b) }
    }

    pub fn forward(&self) -> u64 {
        let a = self.alpha.lock();
        let b = self.beta.lock();
        *a + *b
    }

    /// planted violation: acquires beta before alpha, closing the cycle.
    pub fn backward(&self) -> u64 {
        let b = self.beta.lock();
        let a = self.alpha.lock();
        *b - *a
    }

    /// planted violation: holds `alpha` across `persist`, which may
    /// dispatch to `Disk::persist` in crate B and wait on the device. The
    /// closure runs on this thread, under the guard.
    pub fn spill(&self, dev: &dyn Device) -> u64 {
        let a = self.alpha.lock();
        [*a].iter().for_each(|_| dev.persist());
        *a
    }

    /// Not a violation: the spawned closure waits on the device on its own
    /// thread, which holds no guard of this one.
    pub fn spill_behind(&self, dev: Box<dyn Device + Send>) -> std::thread::JoinHandle<()> {
        let a = self.alpha.lock();
        let handle = std::thread::spawn(move || dev.persist());
        drop(a);
        handle
    }
}

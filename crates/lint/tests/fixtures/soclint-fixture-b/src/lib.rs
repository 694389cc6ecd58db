//! The second fixture crate: a relay that crate A calls through.
//!
//! Nothing in this file is a violation on its own. It exists so the
//! selftest can prove the interprocedural rules see through a crate
//! boundary: `helper` forwards a call made under a lock back into
//! crate A, `spicy` panics when a hot function in crate A reaches
//! it transitively, and `Disk::persist` waits on a device when crate A
//! calls a `dyn Device` under a lock.

/// Implemented in crate A; `helper` only sees the trait.
pub trait Relay {
    fn leaf(&self);
}

/// Forwards to the trait impl. Callers in crate A invoke this while
/// holding a lock, and the impl acquires another one.
pub fn helper(r: &dyn Relay) {
    r.leaf();
}

/// Panics on `None`. Fine here — this crate is not hot — but a hot
/// function in crate A calls it.
pub fn spicy(v: Option<u64>) -> u64 {
    v.unwrap()
}

/// Stand-in for the workspace's modelled device wait; soclint matches
/// it by name.
pub fn precise_sleep(_us: u64) {}

/// A device a caller holds as `dyn Device`: which impl runs is only
/// known at run time.
pub trait Device {
    fn persist(&self);
}

/// Never waits.
pub struct Ram;

/// Waits out a modelled write.
pub struct Disk;

impl Device for Ram {
    fn persist(&self) {}
}

impl Device for Disk {
    fn persist(&self) {
        precise_sleep(60);
    }
}

//! The compute clock: what a node's own work costs in virtual time.
//!
//! The plane runs every host's local `HostService::answer` and every child
//! merge through a [`Compute`] and holds the node's reply until that work
//! is paid for. [`Free`], the default, charges nothing; [`Measured`]
//! charges wall time, so it is for figures, not for runs that must replay
//! exactly. This is the only module of the plane that reads a wall clock.

use pathdump_topology::Nanos;
use std::time::Instant;

/// Runs a unit of a node's work and says what it cost.
pub trait Compute {
    /// Runs `work`, returning its result and the virtual time it took.
    fn run<R>(&mut self, work: impl FnOnce() -> R) -> (R, Nanos);
}

/// Work is instantaneous: the plane's clock carries channel delay only.
#[derive(Clone, Copy, Debug, Default)]
pub struct Free;

impl Compute for Free {
    fn run<R>(&mut self, work: impl FnOnce() -> R) -> (R, Nanos) {
        (work(), Nanos::ZERO)
    }
}

/// Work costs the wall time it took on this machine.
#[derive(Clone, Copy, Debug, Default)]
pub struct Measured;

impl Compute for Measured {
    fn run<R>(&mut self, work: impl FnOnce() -> R) -> (R, Nanos) {
        let t0 = Instant::now();
        let out = work();
        (out, Nanos(t0.elapsed().as_nanos() as u64))
    }
}

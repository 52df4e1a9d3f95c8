//! The process's core ledger and its one fork-join.
//!
//! The simulator computes two focus states whose work never reads the
//! other's: the nominal and defocused kernel sets, images and adjoints.
//! [`fork_join`] runs the second of two such halves on a spare core when
//! the process has one, and on the caller otherwise.
//!
//! Whether a core is spare is a count, not a guess. A thread that owns a
//! core for a long stretch (the runtime pool's job attempts) announces it
//! with [`hold_core`]; a fork that spawns a helper counts that helper as
//! busy until it is joined. A caller that holds no core runs on one anyway,
//! so it counts itself. The fork borrows only while the holders, the
//! borrowers and that caller stay within `available_parallelism()`, so a
//! pool that already fills the cores never spawns a helper, and the last
//! attempt of a batch, or a direct caller, borrows the idle one.
//!
//! The helper is a scoped thread per fork, with nothing parked between
//! forks: a spawn and join costs tens of microseconds against the
//! milliseconds of a half. Its FFT workspace comes from one process-wide
//! [`ScratchPool`], which holds at most one workspace per core that was
//! ever lent at once, so it stays warm across forks, callers and attempts.
//! The fallback runs both halves on the caller's workspace, so a process
//! whose cores are all held pays no memory for forks it does not take.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::scratch::{Fft2dScratch, ScratchPool};

/// Cores held by [`hold_core`] callers plus cores lent to forks.
static BUSY: AtomicUsize = AtomicUsize::new(0);
/// Forks that ran their second half on a borrowed core since the process
/// started.
static BORROWED: AtomicU64 = AtomicU64::new(0);
/// The helpers' workspaces.
static HELPERS: ScratchPool = ScratchPool::new();

thread_local! {
    static HOLDS: Cell<bool> = const { Cell::new(false) };
}

fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// Gives a busy core back to the ledger when dropped, panics included.
struct Busy {
    held: bool,
}

impl Drop for Busy {
    fn drop(&mut self) {
        if self.held {
            HOLDS.with(|h| h.set(false));
        }
        BUSY.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Runs `f` with the calling thread counted as holding a core, so forks
/// elsewhere in the process leave that core alone. Nested calls count once.
pub fn hold_core<R>(f: impl FnOnce() -> R) -> R {
    if HOLDS.with(Cell::get) {
        return f();
    }
    BUSY.fetch_add(1, Ordering::SeqCst);
    HOLDS.with(|h| h.set(true));
    let _held = Busy { held: true };
    f()
}

/// Forks that borrowed a spare core since the process started.
pub fn cores_borrowed() -> u64 {
    BORROWED.load(Ordering::Relaxed)
}

/// Runs `a` on the caller with `scratch`, and `b` beside it on a borrowed
/// core with a helper workspace when the ledger has a spare core, else
/// after `a` on the caller with `scratch`. A half must keep nothing in its
/// workspace that the caller reads later: results then do not depend on
/// the path, as the FFTs' do not depend on scratch history. A panic in
/// either half reaches the caller.
pub fn fork_join<A, B: Send>(
    scratch: &mut Fft2dScratch,
    a: impl FnOnce(&mut Fft2dScratch) -> A,
    b: impl FnOnce(&mut Fft2dScratch) -> B + Send,
) -> (A, B) {
    let caller = usize::from(!HOLDS.with(Cell::get));
    let spare = |busy: usize| (busy + caller < cores()).then_some(busy + 1);
    if BUSY.fetch_update(Ordering::SeqCst, Ordering::SeqCst, spare).is_err() {
        return (a(scratch), b(scratch));
    }
    BORROWED.fetch_add(1, Ordering::Relaxed);
    let _lent = Busy { held: false };
    let mut helper = HELPERS.checkout();
    let out = std::thread::scope(|s| {
        let b = s.spawn(|| b(&mut helper));
        let a = a(scratch);
        (a, b.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
    });
    HELPERS.restore(helper);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::grown;

    #[test]
    fn both_halves_run_on_either_path() {
        let mut scratch = Fft2dScratch::new();
        let halves = |s: &mut Fft2dScratch| {
            fork_join(s, |s| grown(&mut s.panel, 8).len(), |s| grown(&mut s.band, 32).len())
        };
        assert_eq!(halves(&mut scratch), (8, 32));
        assert_eq!(hold_core(|| halves(&mut scratch)), (8, 32));
    }

    #[test]
    fn a_panicking_half_reaches_the_caller() {
        let mut scratch = Fft2dScratch::new();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fork_join(&mut scratch, |_| (), |_| panic!("helper half"))
        }));
        assert!(caught.is_err());
        hold_core(|| assert!(HOLDS.with(Cell::get)));
        assert!(!HOLDS.with(Cell::get), "hold_core unmarks the thread");
    }
}

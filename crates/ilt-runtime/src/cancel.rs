//! Cooperative cancellation and live progress for pool runs.
//!
//! Both types are thin `Arc`-wrapped atomics so a caller (the HTTP server,
//! a CLI signal handler) can keep one end while the pool holds the
//! other. Cancellation is *cooperative*: the pool checks the token at each
//! tile boundary — an in-flight attempt is never interrupted, it finishes
//! (or times out) and then the remaining queue drains as `cancelled`
//! records. Progress counts tiles whose outcome is known (done, degraded,
//! or failed — not cancelled), which is exactly the "tiles done so far"
//! number a polling client wants.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// A shared cancellation flag. Clones observe the same flag; the default
/// token is never cancelled.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// True once any clone has called [`CancelToken::cancel`].
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// A shared monotonic counter of finished work items (tiles). Clones
/// observe the same counter.
#[derive(Clone, Debug, Default)]
pub struct Progress(Arc<AtomicUsize>);

impl Progress {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one more finished item.
    pub fn tick(&self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }

    /// Items finished so far.
    pub fn done(&self) -> usize {
        self.0.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_is_shared_across_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        assert!(!t.is_cancelled() && !c.is_cancelled());
        c.cancel();
        assert!(t.is_cancelled() && c.is_cancelled());
        c.cancel(); // idempotent
        assert!(t.is_cancelled());
    }

    #[test]
    fn progress_counts_across_clones_and_threads() {
        let p = Progress::new();
        let q = p.clone();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let q = q.clone();
                s.spawn(move || {
                    for _ in 0..25 {
                        q.tick();
                    }
                });
            }
        });
        assert_eq!(p.done(), 100);
    }
}

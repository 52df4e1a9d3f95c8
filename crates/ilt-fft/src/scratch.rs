//! Reusable FFT workspaces.
//!
//! Every 2-D transform needs temporary storage: a column panel for the
//! cache-blocked column pass, a band-row buffer for the pruned paths, a
//! fold buffer for the pruned forward, and a packing buffer for the
//! real-input forward path. The batch runtime calls the simulator millions
//! of times from long-lived worker threads, so allocating that storage per
//! transform would put `malloc` in the innermost loop. [`Fft2dScratch`] owns
//! the buffers and grows them monotonically; once warm it allocates nothing.
//! It also memoizes the phase-twist tables of the pruned paths
//! ([`TwistCache`]), which would otherwise cost `p * n / q` trig calls per
//! transform.
//!
//! Callers that cannot conveniently thread a scratch value through borrow
//! a thread-local arena via [`with_thread_scratch`], which is also
//! non-allocating on repeat calls.
//!
//! Execution layers that spawn short-lived threads (the runtime pool runs
//! each job attempt on a fresh thread for panic/timeout isolation) would
//! lose the thread-local arena on every attempt; [`ScratchPool`] +
//! [`with_installed_scratch`] let them keep a set of warm workspaces alive
//! across attempts and temporarily install one as the current thread's
//! arena, so every transform down the call stack reuses it without
//! signature changes.

use std::cell::RefCell;
use std::sync::Mutex;

use crate::complex::Complex64;

/// Grows `buf` to at least `len` and returns the `len`-prefix slice.
///
/// Contents are unspecified; callers must fully overwrite or zero it.
pub fn grown<T: Copy + Default>(buf: &mut Vec<T>, len: usize) -> &mut [T] {
    if buf.len() < len {
        buf.resize(len, T::default());
    }
    &mut buf[..len]
}

/// Buffers the arena keeps for its caller rather than for the transforms:
/// the caller assigns the roles and sizes them with [`grown`].
#[derive(Debug, Default)]
pub struct WorkBuffers {
    /// Independent complex buffers.
    pub complex: [Vec<Complex64>; 3],
    /// One real buffer.
    pub real: Vec<f64>,
    /// Complex buffers a caller keeps for state it carries between
    /// checkouts (it takes them out while it lends the workspace).
    pub kept: [Vec<Complex64>; 3],
    /// Real buffers kept likewise.
    pub kept_real: [Vec<f64>; 2],
}

/// Key of a memoized phase-twist table: `(n, p, forward)`.
pub(crate) type TwistKey = (usize, usize, bool);

/// Bound on distinct twist tables kept per scratch; a multi-level simulator
/// touches a handful of `(n, p)` pairs, far below this.
const TWIST_CACHE_CAP: usize = 8;

/// Memoized phase-twist tables for the pruned transforms.
///
/// The pruned inverse needs `e^{+2 pi i f r0 / n} * q/n` for every retained
/// frequency `f` and residue `r0` (a `p x n/q` table); the pruned forward
/// needs `e^{-2 pi i f b / n}` over the Hermitian closure of the retained
/// set. Both are pure functions of `(n, p)`, so they are built once per
/// scratch and replayed — removing `p * n / q` `sin_cos` calls from every
/// transform.
#[derive(Debug, Default)]
pub(crate) struct TwistCache {
    entries: Vec<(TwistKey, Vec<Complex64>)>,
}

impl TwistCache {
    /// Returns the table for `key`, building it on first use.
    pub(crate) fn get_or_build(
        &mut self,
        key: TwistKey,
        build: impl FnOnce() -> Vec<Complex64>,
    ) -> &[Complex64] {
        if let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) {
            return &self.entries[pos].1;
        }
        if self.entries.len() >= TWIST_CACHE_CAP {
            self.entries.remove(0);
        }
        self.entries.push((key, build()));
        &self.entries.last().expect("just pushed").1
    }

    fn stored_values(&self) -> usize {
        self.entries.iter().map(|(_, t)| t.len()).sum()
    }
}

/// Reusable workspace for [`crate::Fft2d`] transforms.
///
/// One scratch serves transforms of any size: buffers grow to the largest
/// request and are reused afterwards. A scratch is cheap to create empty, so
/// per-call construction is correct (just slower on the first transforms);
/// the intended pattern is one scratch per worker thread or per batch of
/// transforms.
///
/// Results never depend on scratch history: every path fully overwrites the
/// regions it reads, and the memoized twist tables are keyed by exact
/// transform shape.
///
/// # Examples
///
/// ```
/// use ilt_fft::{Complex64, Fft2d, Fft2dScratch};
///
/// let fft = Fft2d::new(8, 8);
/// let mut scratch = Fft2dScratch::new();
/// let mut data = vec![Complex64::ONE; 64];
/// fft.forward_with(&mut data, &mut scratch);
/// fft.inverse_with(&mut data, &mut scratch);
/// assert!((data[0] - Complex64::ONE).abs() < 1e-12);
/// ```
#[derive(Debug, Default)]
pub struct Fft2dScratch {
    /// Transposed column panels for the blocked column pass.
    pub(crate) panel: Vec<Complex64>,
    /// Row-transformed band rows (`p x n`) of the pruned paths.
    pub(crate) band: Vec<Complex64>,
    /// Residue grid of the pruned inverses: `q x n`, or `q x n/2` packed
    /// column pairs for the real-output inverse.
    pub(crate) grid: Vec<Complex64>,
    /// Column panel (`n x w`) of the pruned forward, transformed in place
    /// as its `q x (s*w)` stride-`s` decimation.
    pub(crate) fold: Vec<Complex64>,
    /// Per-column retained/closure spectrum values of the pruned forward.
    pub(crate) xz: Vec<Complex64>,
    /// Full-grid output buffer loaned out by the batched inverse.
    pub(crate) batch_out: Vec<Complex64>,
    /// Memoized phase-twist tables of the pruned paths.
    pub(crate) twist: TwistCache,
    /// Caller-side buffers, checked out by [`Fft2dScratch::with_work`].
    work: WorkBuffers,
}

impl Fft2dScratch {
    /// Creates an empty workspace; buffers are grown on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f` with the caller-side [`WorkBuffers`] checked out of the
    /// workspace, so `f` can fill them with transforms that run on `self`.
    /// They are empty inside a nested call, and a panic in `f` only costs
    /// their warmth.
    pub fn with_work<R>(&mut self, f: impl FnOnce(&mut WorkBuffers, &mut Fft2dScratch) -> R) -> R {
        let mut work = std::mem::take(&mut self.work);
        let result = f(&mut work, self);
        self.work = work;
        result
    }

    /// Total values currently held across all buffers and memoized tables.
    pub fn capacity(&self) -> usize {
        self.work.complex.iter().chain(&self.work.kept).map(Vec::len).sum::<usize>()
            + self.work.real.len()
            + self.work.kept_real.iter().map(Vec::len).sum::<usize>()
            + self.panel.len()
            + self.band.len()
            + self.grid.len()
            + self.fold.len()
            + self.xz.len()
            + self.batch_out.len()
            + self.twist.stored_values()
    }
}

/// A mutex-guarded free list of warm [`Fft2dScratch`] workspaces.
///
/// Execution layers that run work on short-lived threads (one thread per job
/// attempt in the runtime pool) check a workspace out, install it with
/// [`with_installed_scratch`] for the duration of the attempt, and restore
/// it afterwards — so grown buffers and memoized twist tables survive across
/// attempts instead of dying with each thread.
///
/// # Examples
///
/// ```
/// use ilt_fft::ScratchPool;
///
/// let pool = ScratchPool::new();
/// let scratch = pool.checkout(); // empty on first use
/// pool.restore(scratch); // the next checkout gets it back, warm
/// ```
#[derive(Debug, Default)]
pub struct ScratchPool {
    free: Mutex<Vec<Fft2dScratch>>,
}

impl ScratchPool {
    /// Creates an empty pool.
    pub const fn new() -> Self {
        ScratchPool { free: Mutex::new(Vec::new()) }
    }

    /// Takes a workspace from the free list, or creates an empty one.
    pub fn checkout(&self) -> Fft2dScratch {
        self.free
            .lock()
            .expect("scratch pool lock poisoned")
            .pop()
            .unwrap_or_default()
    }

    /// Returns a workspace to the free list for the next checkout.
    pub fn restore(&self, scratch: Fft2dScratch) {
        self.free.lock().expect("scratch pool lock poisoned").push(scratch);
    }
}

thread_local! {
    static ARENA: RefCell<Fft2dScratch> = RefCell::new(Fft2dScratch::new());
}

/// Runs `f` with this thread's shared FFT workspace.
///
/// The arena persists for the life of the thread, so repeated transforms of
/// the same sizes allocate nothing. Re-entrant use (calling
/// `with_thread_scratch` while already inside it) falls back to a fresh
/// temporary workspace instead of panicking, so it stays safe to call from
/// anywhere.
///
/// # Examples
///
/// ```
/// use ilt_fft::with_thread_scratch;
///
/// let cap = with_thread_scratch(|scratch| scratch.capacity());
/// assert!(cap < usize::MAX);
/// ```
pub fn with_thread_scratch<R>(f: impl FnOnce(&mut Fft2dScratch) -> R) -> R {
    ARENA.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut Fft2dScratch::new()),
    })
}

/// Swaps `s` with the thread arena; returns `false` (and does nothing) if
/// the arena is currently borrowed by an enclosing transform.
fn swap_with_arena(s: &mut Fft2dScratch) -> bool {
    ARENA.with(|cell| match cell.try_borrow_mut() {
        Ok(mut arena) => {
            std::mem::swap(&mut *arena, s);
            true
        }
        Err(_) => false,
    })
}

/// Runs `f` with `scratch` installed as the current thread's FFT arena.
///
/// Every transform reached through [`with_thread_scratch`] during `f` — the
/// whole simulator/optimizer stack — then reuses `scratch`'s warm buffers.
/// The previous arena contents are restored on exit, including on panic, so
/// the caller gets the (possibly further grown) workspace back in `scratch`
/// and can return it to a [`ScratchPool`].
///
/// If the arena is already borrowed by an enclosing transform (re-entrant
/// use), `f` simply runs without the installation.
///
/// # Examples
///
/// ```
/// use ilt_fft::{with_installed_scratch, with_thread_scratch, Complex64, Fft2d, Fft2dScratch};
///
/// let mut scratch = Fft2dScratch::new();
/// let mut img = vec![Complex64::ONE; 64 * 64];
/// with_installed_scratch(&mut scratch, || {
///     // Warms `scratch`, not the arena.
///     with_thread_scratch(|arena| Fft2d::new(64, 64).forward_with(&mut img, arena));
/// });
/// assert!(scratch.capacity() > 0);
/// ```
pub fn with_installed_scratch<R>(scratch: &mut Fft2dScratch, f: impl FnOnce() -> R) -> R {
    struct Restore<'a>(&'a mut Fft2dScratch);
    impl Drop for Restore<'_> {
        fn drop(&mut self) {
            swap_with_arena(self.0);
        }
    }

    if !swap_with_arena(scratch) {
        return f();
    }
    let restore = Restore(scratch);
    let result = f();
    drop(restore);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_grow_monotonically_and_are_reused() {
        let mut s = Fft2dScratch::new();
        assert_eq!(s.capacity(), 0);
        grown(&mut s.panel, 64);
        let after_first = s.capacity();
        grown(&mut s.panel, 32); // smaller request reuses the larger buffer
        assert_eq!(s.capacity(), after_first);
        grown(&mut s.panel, 128);
        assert!(s.capacity() > after_first);
    }

    #[test]
    fn thread_scratch_is_reentrant_safe() {
        let nested = with_thread_scratch(|outer| {
            grown(&mut outer.panel, 16);
            with_thread_scratch(|inner| {
                // The inner workspace is a fresh fallback, not the arena.
                inner.capacity()
            })
        });
        assert_eq!(nested, 0);
    }

    #[test]
    fn twist_cache_memoizes_and_bounds_entries() {
        let mut cache = TwistCache::default();
        let mut builds = 0;
        for _ in 0..3 {
            let t = cache.get_or_build((64, 5, true), || {
                builds += 1;
                vec![Complex64::ONE; 4]
            });
            assert_eq!(t.len(), 4);
        }
        assert_eq!(builds, 1, "same key must not rebuild");
        for n in 0..2 * TWIST_CACHE_CAP {
            cache.get_or_build((128 + n, 5, false), || vec![Complex64::ONE; 1]);
        }
        assert!(cache.entries.len() <= TWIST_CACHE_CAP);
    }

    #[test]
    fn scratch_pool_recycles_workspaces() {
        let pool = ScratchPool::new();
        let idle = |pool: &ScratchPool| pool.free.lock().unwrap().len();
        assert_eq!(idle(&pool), 0);
        let mut s = pool.checkout();
        grown(&mut s.panel, 256);
        let warmed = s.capacity();
        pool.restore(s);
        assert_eq!(idle(&pool), 1);
        let back = pool.checkout();
        assert_eq!(back.capacity(), warmed, "checkout must return the warm workspace");
        assert_eq!(idle(&pool), 0);
    }

    #[test]
    fn installed_scratch_captures_arena_growth() {
        let mut scratch = Fft2dScratch::new();
        with_installed_scratch(&mut scratch, || {
            with_thread_scratch(|arena| {
                grown(&mut arena.band, 512);
            });
        });
        assert!(scratch.capacity() >= 512, "growth must land in the installed scratch");
    }

    #[test]
    fn installed_scratch_restores_arena_on_panic() {
        let before = with_thread_scratch(|arena| arena.capacity());
        let mut scratch = Fft2dScratch::new();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_installed_scratch(&mut scratch, || {
                with_thread_scratch(|arena| {
                    grown(&mut arena.grid, 64);
                });
                panic!("boom");
            })
        }));
        assert!(caught.is_err());
        assert!(scratch.capacity() >= 64, "panicked work still lands in the scratch");
        let after = with_thread_scratch(|arena| arena.capacity());
        assert_eq!(before, after, "arena must be restored after a panic");
    }
}

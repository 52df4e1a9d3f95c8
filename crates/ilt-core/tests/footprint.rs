//! Full-size fields exist only while the math needs them.
//!
//! A counting allocator over `System` tracks the live and peak heap bytes
//! of the whole process. Each call is made once to warm the FFT arenas,
//! plan caches and helper workspaces, then once more with the peak reset
//! to the live bytes at entry; the rise is bounded in full-size `f64`
//! fields, plus slack for what is not full size. The counter sees every
//! thread, so this binary holds a single test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ilt_core::{IltConfig, MultiLevelIlt, Stage};
use ilt_field::Field2D;
use ilt_layouts::iccad2013_case;
use ilt_optics::{LithoSimulator, OpticsConfig};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::SeqCst) + by;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters only read sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` are `System`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from `System` with `layout`, as the caller promises.
        unsafe { System.dealloc(p, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as in `dealloc`, and `new_size` is the caller's valid size.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            // Old and new block may both be alive during the copy.
            grew(new_size);
            LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
        }
        q
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Heap bytes `f` raised the peak above the live bytes at entry, after
/// one warm-up call.
fn peak_rise<R>(mut f: impl FnMut() -> R) -> usize {
    drop(f());
    let entry = LIVE.load(Ordering::SeqCst);
    PEAK.store(entry, Ordering::SeqCst);
    let out = f();
    let rise = PEAK.load(Ordering::SeqCst) - entry;
    drop(out);
    rise
}

fn field_bytes(n: usize) -> usize {
    n * n * std::mem::size_of::<f64>()
}

#[test]
fn full_size_fields_live_only_while_needed() {
    const GRID: usize = 512;
    let layout = iccad2013_case(1);
    let cfg = OpticsConfig {
        grid: GRID,
        nm_per_px: layout.nm_per_px(GRID),
        num_kernels: 10,
        ..OpticsConfig::default()
    };
    let sim = Arc::new(LithoSimulator::new(cfg).expect("valid optics"));
    let target: Field2D = layout.rasterize(GRID);

    // Two aerial images thresholded in place plus the outer print (measured:
    // exactly those three; the mask spectrum and the transforms' planes
    // live in the warm arenas).
    let q = sim.sample_grid(GRID);
    assert!(q < GRID, "the class must resample (Q < m)");
    let prints = peak_rise(|| sim.print_corners(&target));
    let bound = 3 * field_bytes(GRID) + field_bytes(q);
    assert!(
        prints <= bound,
        "print_corners rose {prints} B, bound {bound} B (m = {GRID}, Q = {q})"
    );

    // A low-res run lives at N/s but for the final mask it returns
    // (measured: that mask plus five N/s fields: the stage's target, mask,
    // region, best mask and a step's temporaries).
    let s = 4;
    let ilt = MultiLevelIlt::new(Arc::clone(&sim), IltConfig::default());
    let run = peak_rise(|| ilt.run(&target, &[Stage::low_res(s, 2)]));
    let bound = field_bytes(GRID) + 8 * field_bytes(GRID / s);
    assert!(run <= bound, "run rose {run} B, bound {bound} B (N = {GRID}, s = {s})");
}

//! `print_corners` thresholds its two aerial images in place; each corner
//! print must still be the per-corner reference `resist_hard(&aerial(mask,
//! defocus), dose)` to the bit, on both of the core ledger's paths.
//!
//! The class is the M1 point (grid 256, 8 nm pixels, K = 10), where the
//! images are interpolated from a `Q = 128` sample grid below `m = 256`.
//! The prints run once with a core free, where the focus pair borrows it on
//! a machine with more than one, and once with every core held, where both
//! halves run on the caller. This is the binary's only test, so no other
//! test holds or borrows a core meanwhile.

use std::sync::{mpsc, Barrier};

use ilt_fft::{cores_borrowed, hold_core};
use ilt_field::Field2D;
use ilt_layouts::iccad2013_case;
use ilt_optics::{LithoSimulator, OpticsConfig, ProcessCondition};

const GRID: usize = 256;

fn same_bits(a: &Field2D, b: &Field2D) -> bool {
    a.shape() == b.shape()
        && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Checks the three prints against the reference; returns the forks that
/// borrowed a core meanwhile.
fn check_prints(sim: &LithoSimulator, mask: &Field2D, path: &str) -> u64 {
    let before = cores_borrowed();
    let prints = sim.print_corners(mask);
    let borrowed = cores_borrowed() - before;
    for (name, print, cond) in [
        ("nominal", &prints.nominal, ProcessCondition::nominal()),
        ("inner", &prints.inner, ProcessCondition::inner()),
        ("outer", &prints.outer, ProcessCondition::outer()),
    ] {
        let reference = sim.resist_hard(&sim.aerial(mask, cond.defocus), cond.dose);
        assert!(reference.count_on() > 0, "{name}: the target must print");
        assert!(same_bits(print, &reference), "{path}: {name} print differs from the reference");
    }
    borrowed
}

#[test]
fn corner_prints_are_the_per_corner_reference_on_both_paths() {
    let layout = iccad2013_case(1);
    let cfg = OpticsConfig {
        grid: GRID,
        nm_per_px: layout.nm_per_px(GRID),
        num_kernels: 10,
        ..OpticsConfig::default()
    };
    let sim = LithoSimulator::new(cfg).expect("valid optics");
    assert!(sim.sample_grid(GRID) < GRID, "the class must resample (Q < m)");
    let mask = layout.rasterize(GRID);

    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let forked = check_prints(&sim, &mask, "core free");
    assert_eq!(forked, u64::from(cores > 1), "{cores} cores, one free");

    // `cores - 1` threads park inside `hold_core` until the check is over
    // (or has panicked, dropping the senders); the check holds the last.
    let entered = Barrier::new(cores);
    let serial = std::thread::scope(|scope| {
        let mut release = Vec::new();
        for _ in 1..cores {
            let (tx, rx) = mpsc::channel::<()>();
            release.push(tx);
            let entered = &entered;
            scope.spawn(move || {
                hold_core(|| {
                    entered.wait();
                    let _ = rx.recv();
                })
            });
        }
        let out = hold_core(|| {
            entered.wait();
            check_prints(&sim, &mask, "every core held")
        });
        drop(release);
        out
    });
    assert_eq!(serial, 0, "every core held, yet the prints borrowed one");
}

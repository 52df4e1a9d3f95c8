//! The core ledger's helper path is the serial path, to the bit.
//!
//! The simulator's three two-focus-state routes — the kernel build
//! (`KernelSet::focus_pair`), the corner prints (`aerial_pair`) and the
//! Eq. 5 operator inside `MultiLevelIlt::step` (`soft_corners`) — run once
//! with a core free, where each fork borrows it when the machine has more
//! than one, and once with every core held, where each fork runs its
//! halves one after the other on the caller. Both runs must produce the
//! same bits, and only the first may borrow. The class is the M1 point
//! (grid 256, 8 nm pixels, `P = 57`, K = 10), where the transforms run on
//! a `Q = 128` grid below the mask's `m = 256`.

use std::sync::{mpsc, Arc, Barrier};

use ilt_core::{IltConfig, MultiLevelIlt, StageKind};
use ilt_fft::{cores_borrowed, hold_core};
use ilt_field::{avg_pool_down, Field2D};
use ilt_layouts::iccad2013_case;
use ilt_optics::{LithoSimulator, OpticsConfig};

const GRID: usize = 256;

fn bits_of(field: &Field2D) -> impl Iterator<Item = u64> + '_ {
    field.as_slice().iter().map(|v| v.to_bits())
}

/// Every bit one run computes: both kernel sets, both aerial images and
/// the three prints of the target, and the loss and gradient of one step
/// in each of Algorithm 1's branches. Also returns the forks that borrowed
/// a core meanwhile.
fn run() -> (Vec<u64>, u64) {
    let before = cores_borrowed();
    let layout = iccad2013_case(1);
    let cfg = OpticsConfig {
        grid: GRID,
        nm_per_px: layout.nm_per_px(GRID),
        num_kernels: 10,
        ..OpticsConfig::default()
    };
    let sim = Arc::new(LithoSimulator::new(cfg).expect("valid optics"));
    assert!(sim.sample_grid(GRID) < GRID, "the class must resample (Q < m)");
    let mut bits = Vec::new();
    for defocus in [false, true] {
        let set = sim.kernels(defocus);
        bits.extend(set.weights().iter().map(|w| w.to_bits()));
        for k in 0..set.num_kernels() {
            bits.extend(set.spectrum(k).iter().flat_map(|z| [z.re.to_bits(), z.im.to_bits()]));
        }
    }
    let target = layout.rasterize(GRID);
    let (focused, defocused) = sim.aerial_pair(&target);
    let prints = sim.print_corners(&target);
    for field in [&focused, &defocused, &prints.nominal, &prints.inner, &prints.outer] {
        bits.extend(bits_of(field));
    }
    let ilt = MultiLevelIlt::new(Arc::clone(&sim), IltConfig::default());
    // Low-res at s = 1 and high-res at s = 2 both simulate m = 256 pixels.
    for (kind, s) in [(StageKind::LowRes, 1), (StageKind::HighRes, 2)] {
        let z_t_s = avg_pool_down(&target, s);
        let m_raw = z_t_s.map(|z| 0.2 + 0.6 * z);
        let (loss, grad) = ilt.step(kind, s, &m_raw, &z_t_s);
        bits.push(loss.to_bits());
        bits.extend(bits_of(&grad));
    }
    (bits, cores_borrowed() - before)
}

#[test]
fn the_helper_path_is_the_serial_path_to_the_bit() {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let (free, borrowed_free) = run();
    // One fork per route: the kernel build, two aerial pairs, and two per
    // step (image + exposure, then spread + pull-back).
    let forks = 1 + 2 + 2 * 2;
    assert_eq!(borrowed_free, if cores > 1 { forks } else { 0 }, "{cores} cores, one free");

    // Hold every core: `cores - 1` threads park inside `hold_core` until
    // the run is over (or has panicked, dropping the senders), and the run
    // itself holds the last one.
    let entered = Barrier::new(cores);
    let (held, borrowed_held) = std::thread::scope(|scope| {
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
            run()
        });
        drop(release);
        out
    });
    assert_eq!(borrowed_held, 0, "every core held, yet a fork borrowed one");

    assert_eq!(free.len(), held.len());
    let first = free.iter().zip(&held).position(|(a, b)| a != b);
    assert!(first.is_none(), "helper and serial runs differ, first at bit word {first:?}");
}

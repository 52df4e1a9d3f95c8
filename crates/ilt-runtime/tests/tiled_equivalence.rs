//! Tiled-vs-untiled physics: stitching must not corrupt interior pixels.
//!
//! A tile window simulates at its own grid size, so its DFT samples the
//! pupil on a coarser frequency lattice than the full field and wraps the
//! SOCS kernel tails at a shorter period. Both effects decay with distance
//! from the window border; measured on this stack, the interior disagreement
//! bottoms out near 2e-5 once the guard band reaches ~3.5 lambda/NA
//! (halo * nm_per_px >= ~500 nm). The assertions below pin that behavior:
//! errors shrink monotonically with the halo and stay under a bound with a
//! few-x margin over the measured floor.

use ilt_field::Field2D;
use ilt_optics::{LithoSimulator, OpticsConfig};
use ilt_runtime::{SeamPolicy, TileGrid};

const N: usize = 256;
const NM: f64 = 16.0;

fn bar_target() -> Field2D {
    // A horizontal bar crossing several tiles, centered mid-field so its
    // body sits far from every core seam.
    Field2D::from_fn(N, N, |r, c| {
        if (N / 2 - 8..N / 2 + 8).contains(&r) && (N / 5..N - N / 5).contains(&c) {
            1.0
        } else {
            0.0
        }
    })
}

fn optics(grid: usize) -> OpticsConfig {
    OpticsConfig { grid, nm_per_px: NM, num_kernels: 8, ..OpticsConfig::default() }
}

/// Max |tiled - untiled| over pixels at least `margin` px from every core
/// seam and from the field border.
fn interior_error(halo: usize, margin: usize) -> f64 {
    let full = LithoSimulator::new(optics(N)).expect("full-field simulator");
    let untiled = full.aerial(&bar_target(), false);

    let grid = TileGrid::new(N, 128, halo).expect("valid tiling");
    let tsim = LithoSimulator::new(optics(128)).expect("tile simulator");
    let target = bar_target();
    let tiles: Vec<Option<Field2D>> = grid
        .specs()
        .iter()
        .map(|s| Some(tsim.aerial(&grid.extract(&target, s), false)))
        .collect();
    let stitched = grid.stitch(&tiles, SeamPolicy::Crop, &Field2D::zeros(N, N));

    let core = grid.core();
    let seam_distance = |x: usize| {
        let mut best = x.min(N - 1 - x);
        let mut seam = core;
        while seam < N {
            best = best.min(x.abs_diff(seam));
            seam += core;
        }
        best
    };
    let mut worst = 0.0f64;
    let mut checked = 0usize;
    for r in 0..N {
        for c in 0..N {
            if seam_distance(r) >= margin && seam_distance(c) >= margin {
                worst = worst.max((stitched[(r, c)] - untiled[(r, c)]).abs());
                checked += 1;
            }
        }
    }
    assert!(checked > 0, "empty interior: margin {margin} too large for core {core}");
    worst
}

#[test]
fn tiled_aerial_matches_untiled_in_the_interior() {
    // halo = 32 px * 16 nm = 512 nm ~ 3.6 lambda/NA. Measured: ~2.4e-5.
    let err = interior_error(32, 32);
    assert!(err < 1e-4, "interior disagreement {err:.3e} exceeds bound");
}

#[test]
fn interior_error_shrinks_as_the_halo_grows() {
    let coarse = interior_error(8, 8);
    let fine = interior_error(32, 32);
    assert!(
        fine < coarse / 10.0,
        "halo growth must pay off: halo8 -> {coarse:.3e}, halo32 -> {fine:.3e}"
    );
}

#[test]
fn stitch_of_consistent_tiles_is_bit_exact() {
    // Stitching windows cut from one source must reproduce it exactly —
    // this isolates the tiling bookkeeping from the physics above.
    let src = Field2D::from_fn(N, N, |r, c| ((r * 31 + c * 17) % 97) as f64 * 0.01);
    let grid = TileGrid::new(N, 128, 32).expect("valid tiling");
    let tiles: Vec<Option<Field2D>> =
        grid.specs().iter().map(|s| Some(grid.extract(&src, s))).collect();
    let out = grid.stitch(&tiles, SeamPolicy::Crop, &Field2D::zeros(N, N));
    assert_eq!(out, src);
}

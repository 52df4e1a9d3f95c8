//! Property tests of the contest metrics on random rectangle geometry:
//! each property runs over `CASES` inputs drawn from a seeded
//! `Xorshift64Star`, so a failure replays from its case number.

use ilt_field::Field2D;
use ilt_geom::{rasterize_rects, Rect};
use ilt_layouts::Xorshift64Star;
use ilt_metrics::{pvband, squared_l2, EpeChecker};

const CASES: u64 = 32;

/// Uniform integer in `lo..hi`.
fn below(rng: &mut Xorshift64Star, lo: usize, hi: usize) -> usize {
    rng.gen_range_u32(lo as u32, hi as u32 - 1) as usize
}

/// A rect large enough that EPE measurement sites exist, placed so a
/// uniform grow of up to 25 px never clips at the 128-px clip border.
fn rect(rng: &mut Xorshift64Star) -> Rect {
    let (r0, c0) = (below(rng, 26, 40), below(rng, 26, 40));
    let (h, w) = (below(rng, 20, 50), below(rng, 20, 50));
    Rect::new(r0, c0, (r0 + h).min(96), (c0 + w).min(96))
}

/// A perfect print never violates EPE, whatever the target geometry.
#[test]
fn perfect_print_is_violation_free() {
    let mut rng = Xorshift64Star::new(1);
    for case in 0..CASES {
        let target = rasterize_rects(&[rect(&mut rng)], 128, 128);
        let res = EpeChecker::default().check(&target, &target);
        assert!(res.num_sites() > 0, "case {case}");
        assert_eq!(res.violations(), 0, "case {case}");
    }
}

/// Uniform edge bias below the threshold passes; above it, every site
/// violates. (The EPE threshold is 15 nm at 1 nm/px.)
#[test]
fn uniform_bias_threshold_behaviour() {
    let mut rng = Xorshift64Star::new(2);
    for case in 0..CASES {
        let (r, grow) = (rect(&mut rng), below(&mut rng, 1, 25));
        let target = rasterize_rects(&[r], 128, 128);
        let grown = Rect::new(
            r.r0.saturating_sub(grow),
            r.c0.saturating_sub(grow),
            (r.r1 + grow).min(128),
            (r.c1 + grow).min(128),
        );
        let printed = rasterize_rects(&[grown], 128, 128);
        let res = EpeChecker::default().check(&target, &printed);
        // Displacement measured from the target edge is ~grow + 0.5.
        if grow + 1 < 15 {
            assert_eq!(res.violations(), 0, "case {case}: grow {grow} should pass");
        }
        if grow > 15 {
            assert_eq!(
                res.violations(),
                res.num_sites(),
                "case {case}: grow {grow} should fail everywhere"
            );
        }
        // All displacements are positive (outward growth).
        assert!(res.sites.iter().all(|s| s.displacement_nm > 0.0), "case {case}");
    }
}

/// Shrinkage produces negative displacements.
#[test]
fn shrinkage_is_negative() {
    let mut rng = Xorshift64Star::new(3);
    for case in 0..CASES {
        let r = rect(&mut rng);
        let target = rasterize_rects(&[r], 128, 128);
        let shrunk = Rect::new(r.r0 + 3, r.c0 + 3, r.r1 - 3, r.c1 - 3);
        let printed = rasterize_rects(&[shrunk], 128, 128);
        for s in &EpeChecker::default().check(&target, &printed).sites {
            assert!(s.displacement_nm < 0.0, "case {case}: {s:?}");
        }
    }
}

/// L2 and PVBand are symmetric, nonnegative, and zero on identity.
#[test]
fn metric_axioms() {
    let mut rng = Xorshift64Star::new(4);
    for case in 0..CASES {
        let x = rasterize_rects(&[rect(&mut rng)], 128, 128);
        let y = rasterize_rects(&[rect(&mut rng)], 128, 128);
        let nm = 0.5 + 7.5 * ((rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64);
        assert_eq!(squared_l2(&x, &y, nm), squared_l2(&y, &x, nm), "case {case}");
        assert_eq!(pvband(&x, &y, nm), pvband(&y, &x, nm), "case {case}");
        assert_eq!(squared_l2(&x, &x, nm), 0.0, "case {case}");
        assert_eq!(pvband(&x, &x, nm), 0.0, "case {case}");
        assert!(squared_l2(&x, &y, nm) >= 0.0, "case {case}");
        // For binary images, L2 and PVBand coincide (both are XOR areas).
        assert!((squared_l2(&x, &y, nm) - pvband(&x, &y, nm)).abs() < 1e-9, "case {case}");
    }
}

/// EPE site count scales with the target perimeter, not its area.
#[test]
fn epe_sites_track_perimeter() {
    let checker = EpeChecker::default();
    let small = rasterize_rects(&[Rect::new(40, 40, 60, 60)], 256, 256);
    let n_small = checker.check(&small, &small).num_sites();
    for scale in 1usize..3 {
        let side = 20 * (scale + 1);
        let big = rasterize_rects(&[Rect::new(40, 40, 40 + side, 40 + side)], 256, 256);
        assert!(checker.check(&big, &big).num_sites() >= n_small, "scale {scale}");
    }
}

/// The checker never reads outside the clip: targets touching the border
/// are handled without panicking.
#[test]
fn border_targets_are_safe() {
    for r in [
        Rect::new(0, 30, 30, 70),
        Rect::new(30, 0, 70, 30),
        Rect::new(98, 30, 128, 70),
        Rect::new(30, 98, 70, 128),
    ] {
        let target = rasterize_rects(&[r], 128, 128);
        let res = EpeChecker::default().check(&target, &Field2D::zeros(128, 128));
        assert_eq!(res.violations(), res.num_sites(), "{r:?}");
    }
}

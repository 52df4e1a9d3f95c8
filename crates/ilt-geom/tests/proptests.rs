//! Property tests: fracturing must always produce an exact disjoint tiling,
//! and component labelling must partition the foreground. Each property
//! runs over `CASES` inputs drawn from a seeded `Xorshift64Star`, so a
//! failure replays from its case number.

use ilt_field::Field2D;
use ilt_geom::{component_count, fracture, label_components, rasterize_rects, Rect};
use ilt_layouts::Xorshift64Star;

const CASES: u64 = 48;

/// Uniform integer in `lo..hi`.
fn below(rng: &mut Xorshift64Star, lo: usize, hi: usize) -> usize {
    rng.gen_range_u32(lo as u32, hi as u32 - 1) as usize
}

/// Each pixel on with probability 0.4.
fn random_mask(rng: &mut Xorshift64Star, rows: usize, cols: usize) -> Field2D {
    Field2D::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|_| f64::from(u8::from(below(rng, 0, 10) < 4))).collect(),
    )
}

/// Up to `max - 1` rectangles inside a 16-px clip.
fn random_rects(rng: &mut Xorshift64Star, max: usize) -> Vec<Rect> {
    (0..below(rng, 0, max))
        .map(|_| {
            let (r0, c0) = (below(rng, 0, 12), below(rng, 0, 12));
            let (h, w) = (below(rng, 1, 6), below(rng, 1, 6));
            Rect::new(r0, c0, (r0 + h).min(16), (c0 + w).min(16))
        })
        .collect()
}

/// Fracture rectangles are disjoint and cover the mask exactly.
#[test]
fn fracture_is_exact_tiling() {
    let mut rng = Xorshift64Star::new(1);
    for case in 0..CASES {
        let mask = random_mask(&mut rng, 12, 12);
        let rects = fracture(&mask);
        let area: usize = rects.iter().map(Rect::area).sum();
        assert_eq!(area, mask.count_on(), "case {case}");
        assert_eq!(rasterize_rects(&rects, 12, 12), mask, "case {case}");
        for i in 0..rects.len() {
            for j in i + 1..rects.len() {
                assert!(!rects[i].intersects(&rects[j]), "case {case}: shots {i} and {j} overlap");
            }
        }
    }
}

/// Component areas sum to the foreground area, and every component's
/// bounding box is tight.
#[test]
fn components_partition_foreground() {
    let mut rng = Xorshift64Star::new(2);
    for case in 0..CASES {
        let mask = random_mask(&mut rng, 10, 10);
        let comps = label_components(&mask);
        let total: usize = comps.iter().map(|c| c.area).sum();
        assert_eq!(total, mask.count_on(), "case {case}");
        assert_eq!(comps.len(), component_count(&mask), "case {case}");
        for comp in &comps {
            let rows = comp.pixels.iter().map(|&(r, _)| r);
            let cols = comp.pixels.iter().map(|&(_, c)| c);
            let tight = Rect::new(
                rows.clone().min().unwrap(),
                cols.clone().min().unwrap(),
                rows.max().unwrap() + 1,
                cols.max().unwrap() + 1,
            );
            assert_eq!(comp.bbox, tight, "case {case}");
            assert!(comp.solidity() > 0.0 && comp.solidity() <= 1.0, "case {case}");
        }
    }
}

/// Fracturing a union of rectangles reproduces the mask they rasterize to.
#[test]
fn fracture_of_rect_unions() {
    let mut rng = Xorshift64Star::new(3);
    for case in 0..CASES {
        let mask = rasterize_rects(&random_rects(&mut rng, 6), 16, 16);
        assert_eq!(rasterize_rects(&fracture(&mask), 16, 16), mask, "case {case}");
    }
}

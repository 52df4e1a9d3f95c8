//! Optimizing-region options (Fig. 7 of the paper).
//!
//! Every published baseline constrains where mask pixels may change.
//! Neural-ILT and A2-ILT use per-feature boxes (**Option 1**); GLS-ILT and
//! DevelSet use one corridor around the whole pattern (**Option 2**).
//! Option 2 gives SRAF-producing methods more room, which is why the paper
//! reports both (Tables II and III). Pixels outside the region are frozen
//! opaque.

use ilt_field::Field2D;
use ilt_geom::{label_components, Rect};

/// How the writable mask region is derived from the target.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum OptimizeRegion {
    /// The whole clip is writable.
    Full,
    /// Option 1 (Neural-ILT / A2-ILT): each target feature's bounding box,
    /// expanded by `margin_nm`.
    Option1 {
        /// Margin around each feature in nm.
        margin_nm: f64,
    },
    /// Option 2 (GLS-ILT / DevelSet): the bounding box of *all* features,
    /// expanded by `margin_nm`.
    Option2 {
        /// Margin around the combined pattern in nm.
        margin_nm: f64,
    },
}

impl OptimizeRegion {
    /// The paper's default margins: generous SRAF room around features.
    pub const fn option1_default() -> Self {
        OptimizeRegion::Option1 { margin_nm: 120.0 }
    }

    /// Default Option 2 corridor.
    pub const fn option2_default() -> Self {
        OptimizeRegion::Option2 { margin_nm: 220.0 }
    }

    /// Computes the binary writable-region mask for a target image: the
    /// `s = 1` case of [`OptimizeRegion::region_mask_at_scale`].
    ///
    /// `nm_per_px` converts the margins to pixels.
    ///
    /// # Examples
    ///
    /// ```
    /// use ilt_core::OptimizeRegion;
    /// use ilt_field::Field2D;
    ///
    /// let target = Field2D::from_fn(64, 64, |r, c| {
    ///     if (28..36).contains(&r) && (28..36).contains(&c) { 1.0 } else { 0.0 }
    /// });
    /// let region = OptimizeRegion::Option1 { margin_nm: 8.0 }.region_mask(&target, 1.0);
    /// assert!(region.count_on() > target.count_on());
    /// assert!(region.count_on() < 64 * 64);
    /// ```
    pub fn region_mask(&self, target: &Field2D, nm_per_px: f64) -> Field2D {
        self.region_mask_at_scale(target, nm_per_px, 1)
    }

    /// The region mask at scale `s`, built on the reduced grid: a reduced
    /// pixel is writable when its `s x s` block meets an expanded box, which
    /// is the full-resolution mask pooled by `s` and kept where it is
    /// nonzero, so border SRAF room survives pooling.
    ///
    /// # Panics
    ///
    /// Panics if `s` does not divide the target dimensions.
    pub fn region_mask_at_scale(&self, target: &Field2D, nm_per_px: f64, s: usize) -> Field2D {
        let (rows, cols) = target.shape();
        assert!(s > 0 && rows % s == 0 && cols % s == 0, "scale {s} must divide {rows}x{cols}");
        let (boxes, margin_nm) = match *self {
            OptimizeRegion::Full => (vec![Rect::new(0, 0, rows, cols)], 0.0),
            OptimizeRegion::Option1 { margin_nm } => {
                (label_components(target).into_iter().map(|c| c.bbox).collect(), margin_nm)
            }
            // The bounding box of all features is the one of all their
            // pixels (the foreground of `label_components`).
            OptimizeRegion::Option2 { margin_nm } => {
                let on = target.as_slice().iter().enumerate().filter(|(_, v)| **v >= 0.5);
                let pixel =
                    |(i, _): (usize, _)| Rect::new(i / cols, i % cols, i / cols + 1, i % cols + 1);
                (on.map(pixel).reduce(|a, b| a.union_bbox(&b)).into_iter().collect(), margin_nm)
            }
        };
        let margin = (margin_nm / nm_per_px).round() as usize;
        let mut region = Field2D::zeros(rows / s, cols / s);
        for b in boxes.iter().map(|b| b.expand_clamped(margin, rows, cols)) {
            let blocks = Rect::new(b.r0 / s, b.c0 / s, b.r1.div_ceil(s), b.c1.div_ceil(s));
            blocks.fill(&mut region, 1.0);
        }
        region
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilt_field::avg_pool_down;
    use ilt_geom::rasterize_rects;

    fn two_features() -> Field2D {
        rasterize_rects(
            &[Rect::new(10, 10, 20, 20), Rect::new(40, 44, 50, 54)],
            64,
            64,
        )
    }

    #[test]
    fn full_region_is_everything() {
        let t = two_features();
        let r = OptimizeRegion::Full.region_mask(&t, 1.0);
        assert_eq!(r.count_on(), 64 * 64);
    }

    #[test]
    fn option1_hugs_features() {
        let t = two_features();
        let r = OptimizeRegion::Option1 { margin_nm: 4.0 }.region_mask(&t, 1.0);
        // Two expanded boxes: (6..24)^2 plus (36..54)x(40..58).
        assert_eq!(r.count_on(), 18 * 18 * 2);
        // The gap between the features stays frozen.
        assert_eq!(r[(30, 30)], 0.0);
    }

    #[test]
    fn option2_covers_the_corridor_between_features() {
        let t = two_features();
        let r = OptimizeRegion::Option2 { margin_nm: 4.0 }.region_mask(&t, 1.0);
        // One box from (6,6) to (54,58).
        assert_eq!(r.count_on(), 48 * 52);
        assert_eq!(r[(30, 30)], 1.0, "corridor must be writable under option 2");
    }

    #[test]
    fn option2_is_superset_of_option1() {
        let t = two_features();
        let r1 = OptimizeRegion::Option1 { margin_nm: 6.0 }.region_mask(&t, 1.0);
        let r2 = OptimizeRegion::Option2 { margin_nm: 6.0 }.region_mask(&t, 1.0);
        for (a, b) in r1.as_slice().iter().zip(r2.as_slice()) {
            assert!(b >= a, "option 2 must contain option 1");
        }
    }

    #[test]
    fn margins_scale_with_pixel_pitch() {
        let t = two_features();
        let fine = OptimizeRegion::Option1 { margin_nm: 8.0 }.region_mask(&t, 1.0);
        let coarse = OptimizeRegion::Option1 { margin_nm: 8.0 }.region_mask(&t, 4.0);
        assert!(fine.count_on() > coarse.count_on());
    }

    #[test]
    fn scaled_region_preserves_any_coverage() {
        let t = two_features();
        let r = OptimizeRegion::Option1 { margin_nm: 5.0 };
        let s4 = r.region_mask_at_scale(&t, 1.0, 4);
        assert_eq!(s4.shape(), (16, 16));
        // Every writable full-res pixel maps into a writable reduced pixel.
        let full = r.region_mask(&t, 1.0);
        for row in 0..64 {
            for col in 0..64 {
                if full[(row, col)] >= 0.5 {
                    assert_eq!(s4[(row / 4, col / 4)], 1.0, "({row},{col})");
                }
            }
        }
    }

    /// The full-resolution derivation the at-scale path replaced: each
    /// feature's expanded box (Option 1) or the expanded union of all
    /// feature boxes (Option 2) filled at full size, then pooled by `s` and
    /// kept where it is nonzero.
    fn pooled_reference(region: OptimizeRegion, t: &Field2D, nm_per_px: f64, s: usize) -> Field2D {
        let (rows, cols) = t.shape();
        let comps = label_components(t);
        let boxes: Vec<Rect> = match region {
            OptimizeRegion::Full => vec![Rect::new(0, 0, rows, cols)],
            OptimizeRegion::Option1 { .. } => comps.iter().map(|c| c.bbox).collect(),
            OptimizeRegion::Option2 { .. } => {
                comps.iter().map(|c| c.bbox).reduce(|a, b| a.union_bbox(&b)).into_iter().collect()
            }
        };
        let mut full = Field2D::zeros(rows, cols);
        for b in boxes {
            let b = match region {
                OptimizeRegion::Option1 { margin_nm } | OptimizeRegion::Option2 { margin_nm } => {
                    b.expand_clamped((margin_nm / nm_per_px).round() as usize, rows, cols)
                }
                OptimizeRegion::Full => b,
            };
            b.fill(&mut full, 1.0);
        }
        avg_pool_down(&full, s).map(|v| if v > 0.0 { 1.0 } else { 0.0 })
    }

    #[test]
    fn at_scale_region_is_the_pooled_full_region_to_the_bit() {
        let n = 64;
        // Margins of 5 px from these features clamp at the top, left,
        // bottom and right edge in turn; the interior box does not clamp,
        // and its odd corners put box edges inside every block size.
        let edges = rasterize_rects(
            &[
                Rect::new(2, 21, 9, 30),
                Rect::new(27, 3, 31, 12),
                Rect::new(58, 37, 61, 45),
                Rect::new(41, 57, 50, 63),
                Rect::new(19, 23, 22, 43),
            ],
            n,
            n,
        );
        let mut single = Field2D::zeros(n, n);
        single[(37, 13)] = 1.0;
        let layout = ilt_layouts::iccad2013_case(1);
        let targets = [
            ("edges", edges, 1.0),
            ("empty", Field2D::zeros(n, n), 1.0),
            ("single pixel", single, 1.0),
            ("M1 case 1", layout.rasterize(256), layout.nm_per_px(256)),
        ];
        for (name, t, nm_per_px) in &targets {
            for margin_nm in [0.0, 5.0 * nm_per_px, 27.0 * nm_per_px] {
                for region in [
                    OptimizeRegion::Full,
                    OptimizeRegion::Option1 { margin_nm },
                    OptimizeRegion::Option2 { margin_nm },
                ] {
                    for s in [1, 2, 4, 8] {
                        let fast = region.region_mask_at_scale(t, *nm_per_px, s);
                        let reference = pooled_reference(region, t, *nm_per_px, s);
                        assert_eq!(fast.shape(), reference.shape());
                        let mut pairs = fast.as_slice().iter().zip(reference.as_slice());
                        assert!(
                            pairs.all(|(a, b)| a.to_bits() == b.to_bits()),
                            "{name}, {region:?}, s = {s}"
                        );
                    }
                    let full = region.region_mask(t, *nm_per_px);
                    assert!(
                        full == pooled_reference(region, t, *nm_per_px, 1),
                        "{name}, {region:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_target_has_empty_region_under_options() {
        let t = Field2D::zeros(32, 32);
        assert_eq!(
            OptimizeRegion::Option2 { margin_nm: 10.0 }.region_mask(&t, 1.0).count_on(),
            0
        );
    }
}

//! Optimizing-region options (Fig. 7 of the paper).
//!
//! Every published baseline constrains where mask pixels may change.
//! Neural-ILT and A2-ILT use per-feature boxes (**Option 1**); GLS-ILT and
//! DevelSet use one corridor around the whole pattern (**Option 2**).
//! Option 2 gives SRAF-producing methods more room, which is why the paper
//! reports both (Tables II and III). Pixels outside the region are frozen
//! opaque.

use ilt_field::{avg_pool_down, Field2D};
use ilt_geom::label_components;

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

    /// Computes the binary writable-region mask for a target image.
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
        let (rows, cols) = target.shape();
        match *self {
            OptimizeRegion::Full => Field2D::filled(rows, cols, 1.0),
            OptimizeRegion::Option1 { margin_nm } => {
                let margin = (margin_nm / nm_per_px).round() as usize;
                let mut region = Field2D::zeros(rows, cols);
                for comp in label_components(target) {
                    comp.bbox.expand_clamped(margin, rows, cols).fill(&mut region, 1.0);
                }
                region
            }
            OptimizeRegion::Option2 { margin_nm } => {
                let margin = (margin_nm / nm_per_px).round() as usize;
                let comps = label_components(target);
                let mut region = Field2D::zeros(rows, cols);
                if let Some(first) = comps.first() {
                    let bbox = comps
                        .iter()
                        .skip(1)
                        .fold(first.bbox, |acc, c| acc.union_bbox(&c.bbox));
                    bbox.expand_clamped(margin, rows, cols).fill(&mut region, 1.0);
                }
                region
            }
        }
    }

    /// Region mask downsampled to scale `s` (a reduced pixel is writable
    /// when any covered pixel is writable, so border SRAF room survives
    /// pooling).
    ///
    /// # Panics
    ///
    /// Panics if `s` does not divide the region dimensions.
    pub fn region_mask_at_scale(&self, target: &Field2D, nm_per_px: f64, s: usize) -> Field2D {
        let full = self.region_mask(target, nm_per_px);
        if s == 1 {
            return full;
        }
        avg_pool_down(&full, s).map(|v| if v > 0.0 { 1.0 } else { 0.0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilt_geom::{rasterize_rects, Rect};

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

    #[test]
    fn empty_target_has_empty_region_under_options() {
        let t = Field2D::zeros(32, 32);
        assert_eq!(
            OptimizeRegion::Option2 { margin_nm: 10.0 }.region_mask(&t, 1.0).count_on(),
            0
        );
    }
}

//! Mask shape simplification — the paper's optional post-processing.
//!
//! Section III-D: "For the optional post-processing, we eliminate too small
//! shapes and replace medium-sized irregular SRAFs with rectangles to
//! further simplify the mask pattern." Both rules act on connected
//! components of the binarized mask; main features (components overlapping
//! the target) are never touched.

use ilt_field::Field2D;

use crate::components::label_components;

/// Configuration for [`simplify_mask`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimplifyConfig {
    /// Components with fewer pixels than this are deleted.
    pub min_area: usize,
    /// Non-main components with area in `[min_area, rect_max_area]` and
    /// solidity below [`SimplifyConfig::min_solidity`] are replaced by their
    /// bounding rectangle.
    pub rect_max_area: usize,
    /// Solidity threshold below which a medium SRAF counts as "irregular".
    pub min_solidity: f64,
}

impl Default for SimplifyConfig {
    /// Defaults tuned for 1 nm/pixel masks: drop sub-25 nm² specks,
    /// rectangularize ragged SRAFs up to 2500 nm².
    fn default() -> Self {
        SimplifyConfig { min_area: 25, rect_max_area: 2500, min_solidity: 0.85 }
    }
}

/// Report of what [`simplify_mask`] changed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimplifyReport {
    /// Number of components deleted for being too small.
    pub removed: usize,
    /// Number of components replaced by their bounding rectangle.
    pub rectangularized: usize,
    /// Number of components left untouched.
    pub kept: usize,
}

/// Applies the paper's post-processing to a binarized mask.
///
/// `target` marks the main features: any mask component whose bounding box
/// intersects a target foreground pixel is a main feature and is preserved
/// verbatim. The remaining components (SRAFs) are deleted when smaller than
/// `cfg.min_area`, and replaced by their bounding rectangle when
/// medium-sized and irregular.
///
/// Returns the simplified mask and a change report.
///
/// # Panics
///
/// Panics if `mask` and `target` have different shapes.
///
/// # Examples
///
/// ```
/// use ilt_field::Field2D;
/// use ilt_geom::{simplify_mask, SimplifyConfig};
///
/// let target = Field2D::zeros(8, 8);
/// let mut mask = Field2D::zeros(8, 8);
/// mask[(4, 4)] = 1.0; // a 1-pixel speck
/// let (clean, report) = simplify_mask(&mask, &target, SimplifyConfig {
///     min_area: 4, ..SimplifyConfig::default()
/// });
/// assert_eq!(clean.count_on(), 0);
/// assert_eq!(report.removed, 1);
/// ```
pub fn simplify_mask(
    mask: &Field2D,
    target: &Field2D,
    cfg: SimplifyConfig,
) -> (Field2D, SimplifyReport) {
    assert_eq!(mask.shape(), target.shape(), "mask/target shape mismatch");
    let mut out = mask.clone();
    let mut report = SimplifyReport::default();

    for comp in label_components(mask) {
        let is_main = comp
            .pixels
            .iter()
            .any(|&(r, c)| target[(r, c)] >= 0.5);
        if is_main {
            report.kept += 1;
            continue;
        }
        if comp.area < cfg.min_area {
            for &(r, c) in &comp.pixels {
                out[(r, c)] = 0.0;
            }
            report.removed += 1;
        } else if comp.area <= cfg.rect_max_area && comp.solidity() < cfg.min_solidity {
            for &(r, c) in &comp.pixels {
                out[(r, c)] = 0.0;
            }
            comp.bbox.fill(&mut out, 1.0);
            report.rectangularized += 1;
        } else {
            report.kept += 1;
        }
    }
    (out, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rect::{rasterize_rects, Rect};

    fn square_target() -> Field2D {
        rasterize_rects(&[Rect::new(8, 8, 16, 16)], 24, 24)
    }

    #[test]
    fn main_features_are_never_touched() {
        let target = square_target();
        let mask = target.clone();
        let (out, report) = simplify_mask(&mask, &target, SimplifyConfig::default());
        assert_eq!(out, mask);
        assert_eq!(report.kept, 1);
        assert_eq!(report.removed, 0);
    }

    #[test]
    fn small_srafs_are_removed() {
        let target = square_target();
        let mut mask = target.clone();
        mask[(2, 2)] = 1.0;
        mask[(2, 3)] = 1.0;
        let cfg = SimplifyConfig { min_area: 5, ..SimplifyConfig::default() };
        let (out, report) = simplify_mask(&mask, &target, cfg);
        assert_eq!(out, target);
        assert_eq!(report.removed, 1);
        assert_eq!(report.kept, 1);
    }

    #[test]
    fn irregular_medium_srafs_become_rectangles() {
        let target = square_target();
        let mut mask = target.clone();
        // An L-shaped SRAF far from the target: 12 px in a 4x4 bbox => solidity 0.75.
        for r in 0..4 {
            mask[(r, 20)] = 1.0;
            mask[(r, 21)] = 1.0;
        }
        mask[(3, 22)] = 1.0;
        mask[(3, 23)] = 1.0;
        mask[(2, 22)] = 1.0;
        mask[(2, 23)] = 1.0;
        let cfg = SimplifyConfig { min_area: 4, rect_max_area: 100, min_solidity: 0.9 };
        let (out, report) = simplify_mask(&mask, &target, cfg);
        assert_eq!(report.rectangularized, 1);
        // The SRAF's bbox is now solid.
        for r in 0..4 {
            for c in 20..24 {
                assert_eq!(out[(r, c)], 1.0, "({r},{c})");
            }
        }
    }

    #[test]
    fn regular_srafs_are_kept_as_is() {
        let target = square_target();
        let mut mask = target.clone();
        Rect::new(0, 0, 2, 6).fill(&mut mask, 1.0); // a clean rectangle SRAF
        let cfg = SimplifyConfig { min_area: 4, rect_max_area: 100, min_solidity: 0.9 };
        let (out, report) = simplify_mask(&mask, &target, cfg);
        assert_eq!(out, mask);
        assert_eq!(report.kept, 2);
    }
}

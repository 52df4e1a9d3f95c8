//! Illumination source shapes (Köhler illumination pupil fills).
//!
//! A partially coherent source is discretized into point sources; each point
//! contributes a shifted copy of the pupil to the Hopkins transmission cross
//! coefficients. Coordinates are in sigma units (fraction of the pupil
//! cutoff `NA / lambda`).

/// Illumination pupil-fill shape.
///
/// # Examples
///
/// ```
/// use ilt_optics::SourceSpec;
///
/// let annular = SourceSpec::Annular { sigma_in: 0.6, sigma_out: 0.9 };
/// let pts = annular.sample(21);
/// assert!(!pts.is_empty());
/// // Total weight is normalized to 1.
/// let w: f64 = pts.iter().map(|p| p.weight).sum();
/// assert!((w - 1.0).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SourceSpec {
    /// Fully coherent on-axis point source.
    Coherent,
    /// Circular (conventional) fill of radius `sigma`.
    Circular {
        /// Outer radius in sigma units, in `(0, 1]`.
        sigma: f64,
    },
    /// Annular fill between two radii — the workhorse of M1/via layers.
    Annular {
        /// Inner radius in sigma units.
        sigma_in: f64,
        /// Outer radius in sigma units, `> sigma_in`.
        sigma_out: f64,
    },
}

/// One discretized source point in sigma coordinates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SourcePoint {
    /// X coordinate in sigma units.
    pub sx: f64,
    /// Y coordinate in sigma units.
    pub sy: f64,
    /// Normalized intensity weight; weights over a source sum to 1.
    pub weight: f64,
}

impl SourceSpec {
    /// Checks parameter sanity.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            SourceSpec::Coherent => Ok(()),
            SourceSpec::Circular { sigma } => {
                if sigma > 0.0 && sigma <= 1.0 {
                    Ok(())
                } else {
                    Err(format!("circular sigma {sigma} must be in (0, 1]"))
                }
            }
            SourceSpec::Annular { sigma_in, sigma_out } => {
                if sigma_in >= 0.0 && sigma_out > sigma_in && sigma_out <= 1.0 {
                    Ok(())
                } else {
                    Err(format!("invalid annulus [{sigma_in}, {sigma_out}]"))
                }
            }
        }
    }

    /// Discretizes the source onto a `grid x grid` raster over
    /// `[-1, 1] x [-1, 1]` sigma space, returning the points whose centers
    /// fall inside the fill, with weights normalized to sum to 1.
    ///
    /// `grid` should be odd so an on-axis sample exists; even values are
    /// bumped up by one.
    ///
    /// # Panics
    ///
    /// Panics if the source parameters are invalid (see
    /// [`SourceSpec::validate`]).
    pub fn sample(&self, grid: usize) -> Vec<SourcePoint> {
        self.validate().unwrap_or_else(|e| panic!("invalid source: {e}"));
        if let SourceSpec::Coherent = self {
            return vec![SourcePoint { sx: 0.0, sy: 0.0, weight: 1.0 }];
        }
        let grid = if grid % 2 == 0 { grid + 1 } else { grid };
        let half = (grid / 2) as isize;
        let step = 1.0 / half as f64;
        let mut pts = Vec::new();
        for iy in -half..=half {
            for ix in -half..=half {
                let (sx, sy) = (ix as f64 * step, iy as f64 * step);
                if self.contains(sx, sy) {
                    pts.push(SourcePoint { sx, sy, weight: 1.0 });
                }
            }
        }
        assert!(
            !pts.is_empty(),
            "source discretization produced no points; increase the sample grid"
        );
        let inv = 1.0 / pts.len() as f64;
        for p in &mut pts {
            p.weight = inv;
        }
        pts
    }

    /// Largest source radius in sigma units (0 for a coherent source).
    ///
    /// The TCC band extends to `(1 + max_sigma) * NA / lambda`, so this
    /// drives the derived kernel support.
    pub fn max_sigma(&self) -> f64 {
        match *self {
            SourceSpec::Coherent => 0.0,
            SourceSpec::Circular { sigma } => sigma,
            SourceSpec::Annular { sigma_out, .. } => sigma_out,
        }
    }

    /// Returns `true` if sigma-space point `(sx, sy)` lies in the fill.
    pub fn contains(&self, sx: f64, sy: f64) -> bool {
        let r = (sx * sx + sy * sy).sqrt();
        match *self {
            SourceSpec::Coherent => r < 1e-12,
            SourceSpec::Circular { sigma } => r <= sigma,
            SourceSpec::Annular { sigma_in, sigma_out } => r >= sigma_in && r <= sigma_out,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coherent_is_a_single_axial_point() {
        let pts = SourceSpec::Coherent.sample(11);
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].sx, 0.0);
        assert_eq!(pts[0].weight, 1.0);
    }

    #[test]
    fn circular_includes_origin_annular_excludes_it() {
        let circ = SourceSpec::Circular { sigma: 0.5 }.sample(21);
        assert!(circ.iter().any(|p| p.sx == 0.0 && p.sy == 0.0));
        let ann = SourceSpec::Annular { sigma_in: 0.4, sigma_out: 0.9 }.sample(21);
        assert!(!ann.iter().any(|p| p.sx == 0.0 && p.sy == 0.0));
    }

    #[test]
    fn weights_normalize_to_one() {
        for spec in [
            SourceSpec::Circular { sigma: 0.8 },
            SourceSpec::Annular { sigma_in: 0.55, sigma_out: 0.95 },
        ] {
            let pts = spec.sample(25);
            let total: f64 = pts.iter().map(|p| p.weight).sum();
            assert!((total - 1.0).abs() < 1e-12, "{spec:?}");
        }
    }

    #[test]
    fn annular_radii_respected() {
        let pts = SourceSpec::Annular { sigma_in: 0.6, sigma_out: 0.9 }.sample(41);
        for p in &pts {
            let r = (p.sx * p.sx + p.sy * p.sy).sqrt();
            assert!((0.6..=0.9).contains(&r), "r = {r}");
        }
    }

    #[test]
    fn even_grid_is_bumped_to_odd() {
        let a = SourceSpec::Circular { sigma: 0.9 }.sample(20);
        let b = SourceSpec::Circular { sigma: 0.9 }.sample(21);
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn validation_errors() {
        assert!(SourceSpec::Circular { sigma: 0.0 }.validate().is_err());
        assert!(SourceSpec::Annular { sigma_in: 0.9, sigma_out: 0.6 }.validate().is_err());
        assert!(SourceSpec::Annular { sigma_in: 0.5, sigma_out: 1.2 }.validate().is_err());
    }
}

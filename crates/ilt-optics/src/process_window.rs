//! Process-window analysis.
//!
//! PVBand (Definition 2 of the paper) samples exactly two process corners.
//! Mask-optimization lineage going back to MOSAIC [1] evaluates the full
//! **process window**: the set of (defocus, dose) conditions under which
//! the mask still prints acceptably. This module sweeps a defocus x dose
//! grid, building one kernel set per defocus level, and reports the
//! pass/fail map plus the usable dose latitude at each focus.

use ilt_field::Field2D;

use crate::config::OpticsConfig;
use crate::kernels::KernelSet;
use crate::simulator::LithoSimulator;

/// The sweep grid and acceptance rule.
#[derive(Clone, Debug, PartialEq)]
pub struct ProcessWindowSpec {
    /// Defocus levels to evaluate, in nm (0 = nominal focus).
    pub defocus_nm: Vec<f64>,
    /// Dose factors to evaluate (1.0 = nominal).
    pub dose: Vec<f64>,
    /// A condition passes when the printed/target XOR area is at most this
    /// fraction of the target area.
    pub max_error_fraction: f64,
}

impl Default for ProcessWindowSpec {
    /// A 5x5 window around the paper's corners: defocus up to 80 nm, dose
    /// +-4%, 15% acceptable edge erosion.
    fn default() -> Self {
        ProcessWindowSpec {
            defocus_nm: vec![0.0, 20.0, 40.0, 60.0, 80.0],
            dose: vec![0.96, 0.98, 1.0, 1.02, 1.04],
            max_error_fraction: 0.15,
        }
    }
}

/// Result of a process-window sweep.
#[derive(Clone, Debug)]
pub struct ProcessWindow {
    /// Defocus levels evaluated (rows of [`ProcessWindow::passes`]).
    pub defocus_nm: Vec<f64>,
    /// Dose factors evaluated (columns).
    pub dose: Vec<f64>,
    /// `passes[fi][di]`: did condition (defocus `fi`, dose `di`) print
    /// within tolerance?
    pub passes: Vec<Vec<bool>>,
    /// `error[fi][di]`: XOR-area fraction at each condition.
    pub error: Vec<Vec<f64>>,
}

impl ProcessWindow {
    /// Number of passing conditions.
    pub fn pass_count(&self) -> usize {
        self.passes.iter().flatten().filter(|&&p| p).count()
    }

    /// Fraction of the swept grid that passes, in `[0, 1]`.
    pub fn yield_fraction(&self) -> f64 {
        let total = self.passes.iter().map(Vec::len).sum::<usize>();
        if total == 0 {
            0.0
        } else {
            self.pass_count() as f64 / total as f64
        }
    }

    /// Dose latitude at focus level `fi`: the largest contiguous passing
    /// dose range, as (min dose, max dose), if any dose passes.
    pub fn dose_latitude(&self, fi: usize) -> Option<(f64, f64)> {
        let row = &self.passes[fi];
        let mut best: Option<(usize, usize)> = None;
        let mut start = None;
        for (i, &pass) in row.iter().enumerate() {
            match (pass, start) {
                (true, None) => start = Some(i),
                (false, Some(s)) => {
                    if best.is_none_or(|(bs, be)| i - s > be - bs) {
                        best = Some((s, i));
                    }
                    start = None;
                }
                _ => {}
            }
        }
        if let Some(s) = start {
            let i = row.len();
            if best.is_none_or(|(bs, be)| i - s > be - bs) {
                best = Some((s, i));
            }
        }
        best.map(|(s, e)| (self.dose[s], self.dose[e - 1]))
    }
}

/// Sweeps the process window of `mask` against `target`.
///
/// Builds one kernel set per defocus level (the expensive part — reuse the
/// result when comparing masks under the same optics).
///
/// # Panics
///
/// Panics if the spec is empty, the config is invalid, or mask/target
/// shapes disagree with the config grid.
pub fn sweep_process_window(
    cfg: &OpticsConfig,
    mask: &Field2D,
    target: &Field2D,
    spec: &ProcessWindowSpec,
) -> ProcessWindow {
    assert!(
        !spec.defocus_nm.is_empty() && !spec.dose.is_empty(),
        "process-window spec must sweep at least one condition"
    );
    assert_eq!(mask.shape(), target.shape(), "mask/target shape mismatch");
    let target_area = target.count_on().max(1) as f64;

    let mut passes = Vec::with_capacity(spec.defocus_nm.len());
    let mut error = Vec::with_capacity(spec.defocus_nm.len());
    for &defocus in &spec.defocus_nm {
        // A simulator whose *nominal* set is at this defocus level; the
        // unused defocused set reuses the same kernels to avoid a second
        // eigendecomposition.
        let kernels = KernelSet::from_config(cfg, defocus);
        let sim = LithoSimulator::with_kernels(cfg.clone(), kernels.clone(), kernels)
            .expect("consistent kernels");
        let intensity = sim.aerial(mask, false);
        let mut row_pass = Vec::with_capacity(spec.dose.len());
        let mut row_err = Vec::with_capacity(spec.dose.len());
        for &dose in &spec.dose {
            let printed = sim.resist_hard(&intensity, dose);
            let err = printed.xor_count(target) as f64 / target_area;
            row_pass.push(err <= spec.max_error_fraction);
            row_err.push(err);
        }
        passes.push(row_pass);
        error.push(row_err);
    }
    ProcessWindow { defocus_nm: spec.defocus_nm.clone(), dose: spec.dose.clone(), passes, error }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceSpec;

    fn cfg() -> OpticsConfig {
        OpticsConfig {
            grid: 64,
            nm_per_px: 8.0,
            num_kernels: 4,
            source: SourceSpec::Annular { sigma_in: 0.5, sigma_out: 0.9 },
            ..OpticsConfig::default()
        }
    }

    fn big_square() -> Field2D {
        Field2D::from_fn(64, 64, |r, c| {
            if (16..48).contains(&r) && (16..48).contains(&c) {
                1.0
            } else {
                0.0
            }
        })
    }

    fn small_spec() -> ProcessWindowSpec {
        ProcessWindowSpec {
            defocus_nm: vec![0.0, 60.0],
            dose: vec![0.96, 1.0, 1.04],
            max_error_fraction: 0.25,
        }
    }

    #[test]
    fn large_feature_passes_at_nominal() {
        let t = big_square();
        let pw = sweep_process_window(&cfg(), &t, &t, &small_spec());
        assert!(pw.passes[0][1], "nominal condition must pass: {:?}", pw.error);
        assert!(pw.pass_count() >= 1);
        assert!(pw.yield_fraction() > 0.0);
    }

    #[test]
    fn empty_mask_fails_everywhere() {
        let t = big_square();
        let empty = Field2D::zeros(64, 64);
        let pw = sweep_process_window(&cfg(), &empty, &t, &small_spec());
        assert_eq!(pw.pass_count(), 0);
        assert_eq!(pw.yield_fraction(), 0.0);
        assert!(pw.dose_latitude(0).is_none());
    }

    #[test]
    fn error_grows_with_defocus() {
        let t = big_square();
        let spec = ProcessWindowSpec {
            defocus_nm: vec![0.0, 120.0],
            dose: vec![1.0],
            max_error_fraction: 1.0,
        };
        let pw = sweep_process_window(&cfg(), &t, &t, &spec);
        assert!(
            pw.error[1][0] >= pw.error[0][0],
            "more defocus cannot reduce error: {:?}",
            pw.error
        );
    }

    #[test]
    fn dose_latitude_finds_contiguous_range() {
        let pw = ProcessWindow {
            defocus_nm: vec![0.0],
            dose: vec![0.94, 0.96, 0.98, 1.0, 1.02],
            passes: vec![vec![false, true, true, true, false]],
            error: vec![vec![1.0, 0.1, 0.05, 0.1, 1.0]],
        };
        assert_eq!(pw.dose_latitude(0), Some((0.96, 1.0)));
        assert!((pw.yield_fraction() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn dose_latitude_picks_longest_run() {
        let pw = ProcessWindow {
            defocus_nm: vec![0.0],
            dose: vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            passes: vec![vec![true, false, true, true, true, false]],
            error: vec![vec![0.0; 6]],
        };
        assert_eq!(pw.dose_latitude(0), Some((3.0, 5.0)));
    }

    #[test]
    #[should_panic(expected = "at least one condition")]
    fn empty_spec_panics() {
        let t = big_square();
        let spec = ProcessWindowSpec {
            defocus_nm: vec![],
            dose: vec![1.0],
            max_error_fraction: 0.1,
        };
        let _ = sweep_process_window(&cfg(), &t, &t, &spec);
    }
}

//! The multi-level ILT optimizer (Algorithm 1 + Fig. 2 of the paper).
//!
//! A run executes a **schedule** of stages. Each stage is either
//!
//! * **low-resolution** (`flag = 0`): everything — smoothing pool, sigmoid
//!   binarization, lithography (Eq. 8), loss, gradient — happens at size
//!   `N/s`, which is where the >10x per-iteration speedup comes from, or
//! * **high-resolution** (`flag = 1`): the mask is kept at `N/s` but
//!   upsampled for an exact full-size simulation (Eq. 3); the wafer image
//!   is pooled back down before the loss, so the update stays on the
//!   reduced grid and the mask stays simple.
//!
//! The loss is Eq. 5 (`L = L_l2 + L_pvb`, with `Z_out` replacing `Z_norm`
//! in `L_l2` to save a third simulation), gradients flow through the
//! `ilt-autodiff` tape, and a stage exits early when no new minimum loss
//! appears within a configurable window (the paper uses 15 iterations for
//! via layers).

use std::sync::Arc;

use ilt_autodiff::Graph;
use ilt_field::{avg_pool_down, upsample_nearest, Field2D};
use ilt_geom::{simplify_mask, SimplifyConfig};
use ilt_optics::LithoSimulator;

use crate::binary::BinaryFunction;
use crate::loss::LossWeights;
use crate::region::OptimizeRegion;
use crate::update::{UpdateRule, UpdateState};

/// Which Algorithm 1 branch a stage runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StageKind {
    /// `flag = 0`: simulate and optimize at `N/s` (Eq. 8).
    LowRes,
    /// `flag = 1`: simulate at `N`, optimize at `N/s` (Eq. 3 + pooling).
    HighRes,
}

/// One stage of a multi-level schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Stage {
    /// Branch selector.
    pub kind: StageKind,
    /// Scale factor `s` (power of two, `>= 1`).
    pub scale: usize,
    /// Iteration budget (an upper bound when early exit is enabled).
    pub iterations: usize,
}

impl Stage {
    /// A low-resolution stage.
    pub const fn low_res(scale: usize, iterations: usize) -> Self {
        Stage { kind: StageKind::LowRes, scale, iterations }
    }

    /// A high-resolution stage.
    pub const fn high_res(scale: usize, iterations: usize) -> Self {
        Stage { kind: StageKind::HighRes, scale, iterations }
    }
}

/// Where the Section III-D smoothing pool sits relative to binarization.
///
/// The paper's text and Fig. 3(b) smooth **before** binarizing, while the
/// Algorithm 1 listing smooths after; both are offered (the ablation bench
/// compares them) with the text's order as default.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SmoothingPlacement {
    /// Pool `M'` before the binary function (paper text, Fig. 3(b)).
    #[default]
    BeforeBinarize,
    /// Pool the binarized mask (Algorithm 1 listing, line 11).
    AfterBinarize,
}

/// The contour-smoothing pool configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Smoothing {
    /// Window size `n` (odd; the paper uses 3).
    pub kernel: usize,
    /// Placement relative to binarization.
    pub placement: SmoothingPlacement,
}

impl Default for Smoothing {
    fn default() -> Self {
        Smoothing { kernel: 3, placement: SmoothingPlacement::default() }
    }
}

/// Eq. 12's final hard threshold `t_m`.
const FINAL_THRESHOLD: f64 = 0.5;

/// Hyper-parameters of a multi-level ILT run.
#[derive(Clone, Debug, PartialEq)]
pub struct IltConfig {
    /// Gradient-descent step size (the paper's ablation uses 1).
    pub learning_rate: f64,
    /// Binary function during optimization (paper: sigmoid, `T_R = 0.5`).
    pub binary: BinaryFunction,
    /// Binary function for the final output (paper: sigmoid, `T_R = 0.4`).
    pub output_binary: BinaryFunction,
    /// Contour smoothing in low-resolution stages (`None` disables).
    pub smoothing: Option<Smoothing>,
    /// Writable-region policy.
    pub region: OptimizeRegion,
    /// Stop a stage when no new minimum loss within this many iterations.
    pub early_exit_window: Option<usize>,
    /// `M'` value assigned to frozen (outside-region) pixels; strongly
    /// negative so they binarize opaque.
    pub frozen_value: f64,
    /// Optional shape post-processing of the final mask.
    pub postprocess: Option<SimplifyConfig>,
    /// Loss term weights (Eq. 5 plus optional regularizers).
    pub loss_weights: LossWeights,
    /// Gradient update rule (the paper uses plain SGD).
    pub update_rule: UpdateRule,
}

impl Default for IltConfig {
    fn default() -> Self {
        IltConfig {
            learning_rate: 1.0,
            binary: BinaryFunction::paper_sigmoid(),
            output_binary: BinaryFunction::output_sigmoid(),
            smoothing: Some(Smoothing::default()),
            region: OptimizeRegion::option2_default(),
            early_exit_window: None,
            frozen_value: -2.0,
            postprocess: None,
            loss_weights: LossWeights::paper(),
            update_rule: UpdateRule::Sgd,
        }
    }
}

/// One loss sample from the optimization trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LossRecord {
    /// Index of the stage in the schedule.
    pub stage: usize,
    /// Iteration within the stage.
    pub iteration: usize,
    /// Scale factor of the stage.
    pub scale: usize,
    /// Raw Eq. 5 loss at the stage's resolution (multiply by `scale^2` for
    /// a cross-scale comparable figure).
    pub loss: f64,
}

/// Output of a multi-level ILT run.
#[derive(Clone, Debug)]
pub struct IltResult {
    /// Final full-resolution binary mask (Eq. 12 output, post-processed if
    /// configured).
    pub mask: Field2D,
    /// The optimized free-valued mask `M'` at the final stage's scale.
    pub raw_mask: Field2D,
    /// Scale factor of `raw_mask`.
    pub final_scale: usize,
    /// Loss trace across all stages.
    pub loss_history: Vec<LossRecord>,
    /// Total gradient iterations actually executed.
    pub total_iterations: usize,
}

/// The multi-level ILT engine.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use ilt_core::{IltConfig, MultiLevelIlt, Stage};
/// use ilt_field::Field2D;
/// use ilt_optics::{LithoSimulator, OpticsConfig};
///
/// # fn main() -> Result<(), String> {
/// let cfg = OpticsConfig { grid: 64, nm_per_px: 8.0, num_kernels: 3, ..OpticsConfig::default() };
/// let sim = Arc::new(LithoSimulator::new(cfg)?);
/// let target = Field2D::from_fn(64, 64, |r, c| {
///     if (24..40).contains(&r) && (16..48).contains(&c) { 1.0 } else { 0.0 }
/// });
/// let ilt = MultiLevelIlt::new(sim, IltConfig::default());
/// let result = ilt.run(&target, &[Stage::low_res(2, 8)]);
/// assert_eq!(result.mask.shape(), (64, 64));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MultiLevelIlt {
    sim: Arc<LithoSimulator>,
    cfg: IltConfig,
}

impl MultiLevelIlt {
    /// Creates an optimizer bound to a simulator and hyper-parameters.
    pub fn new(sim: Arc<LithoSimulator>, cfg: IltConfig) -> Self {
        MultiLevelIlt { sim, cfg }
    }

    /// The simulator in use.
    pub fn simulator(&self) -> &Arc<LithoSimulator> {
        &self.sim
    }

    /// Runs the full multi-level schedule on a target and synthesizes the
    /// final mask.
    ///
    /// # Panics
    ///
    /// Panics if the target does not match the simulator grid, the schedule
    /// is empty, or a scale is invalid (zero, non-power-of-two, kernel
    /// support exceeded).
    pub fn run(&self, target: &Field2D, schedule: &[Stage]) -> IltResult {
        let n = self.sim.config().grid;
        assert_eq!(target.shape(), (n, n), "target must match the simulator grid {n}");
        assert!(!schedule.is_empty(), "schedule must contain at least one stage");
        for st in schedule {
            assert!(st.scale >= 1 && st.scale.is_power_of_two(), "bad scale {}", st.scale);
            assert!(n / st.scale >= self.sim.kernels(false).p(), "scale {} too coarse", st.scale);
        }
        let nm_per_px = self.sim.config().nm_per_px;

        // Algorithm 1 lines 2-3: M'_s <- AvgPool(Z_t, s).
        let mut scale = schedule[0].scale;
        let mut m_raw = avg_pool_down(target, scale);
        let mut region_s = self.cfg.region.region_mask_at_scale(target, nm_per_px, scale);
        freeze(&mut m_raw, &region_s, self.cfg.frozen_value);

        let mut history = Vec::new();
        let mut total_iterations = 0;

        for (stage_idx, stage) in schedule.iter().enumerate() {
            if stage.scale != scale {
                m_raw = resample_raw(&m_raw, scale, stage.scale);
                scale = stage.scale;
                region_s = self.cfg.region.region_mask_at_scale(target, nm_per_px, scale);
                freeze(&mut m_raw, &region_s, self.cfg.frozen_value);
            }
            let z_t_s = avg_pool_down(target, scale);

            let mut best_loss = f64::INFINITY;
            let mut best_mask = m_raw.clone();
            let mut since_best = 0usize;
            let mut opt_state = UpdateState::new();

            for iteration in 0..stage.iterations {
                let (loss, grad) = self.step(stage.kind, scale, &m_raw, &z_t_s);
                history.push(LossRecord { stage: stage_idx, iteration, scale, loss });
                total_iterations += 1;

                if loss < best_loss {
                    best_loss = loss;
                    best_mask = m_raw.clone();
                    since_best = 0;
                } else {
                    since_best += 1;
                    if let Some(window) = self.cfg.early_exit_window {
                        if since_best >= window {
                            break;
                        }
                    }
                }

                // Gradient step, restricted to the writable region
                // (Algorithm 1 line 15). `region_s` is 0/1 and every update
                // rule maps a zero gradient history to a zero delta, so
                // masking the gradient masks the step.
                let masked = grad.hadamard(&region_s);
                m_raw -= &opt_state.step(self.cfg.update_rule, &masked, self.cfg.learning_rate);
            }

            // Keep the best-loss mask of the stage (the iteration budget is
            // an upper bound, not a commitment).
            if best_loss.is_finite() {
                m_raw = best_mask;
            }
        }

        let mask = self.finalize(&m_raw, scale, target, &region_s);
        IltResult {
            mask,
            raw_mask: m_raw,
            final_scale: scale,
            loss_history: history,
            total_iterations,
        }
    }

    /// One iteration of a stage at `scale`: returns `(loss, dL/dM')`, both
    /// on the reduced grid of `m_raw` and `z_t_s`.
    ///
    /// The tape is leaf -> [smoothing pool] -> binary function -> Eq. 5
    /// (one node, [`LossWeights::eq5`]). A low-resolution stage simulates
    /// the binarized mask as it is (Eq. 8); a high-resolution stage
    /// (Algorithm 1 lines 7-9) simulates its `scale`-fold upsampling (Eq. 3)
    /// and binarizes without the smoothing pool, which "is only adopted by
    /// low-resolution ILTs".
    pub fn step(
        &self,
        kind: StageKind,
        scale: usize,
        m_raw: &Field2D,
        z_t_s: &Field2D,
    ) -> (f64, Field2D) {
        let mut g = Graph::new(self.sim.clone());
        let v_raw = g.leaf(m_raw.clone());
        let (m, up) = match kind {
            StageKind::LowRes => (self.binarize_with_smoothing(&mut g, v_raw), 1),
            StageKind::HighRes => (self.cfg.binary.apply(&mut g, v_raw), scale),
        };
        let loss = self.cfg.loss_weights.eq5(&mut g, m, up, z_t_s);
        let loss_value = g.scalar(loss);
        let grads = g.backward(loss);
        (loss_value, grads.wrt(v_raw).expect("mask influences loss").clone())
    }

    fn binarize_with_smoothing(
        &self,
        g: &mut Graph,
        v_raw: ilt_autodiff::Var,
    ) -> ilt_autodiff::Var {
        match self.cfg.smoothing {
            Some(Smoothing { kernel, placement: SmoothingPlacement::BeforeBinarize }) => {
                let smoothed = g.avg_pool_same(v_raw, kernel);
                self.cfg.binary.apply(g, smoothed)
            }
            Some(Smoothing { kernel, placement: SmoothingPlacement::AfterBinarize }) => {
                let m = self.cfg.binary.apply(g, v_raw);
                g.avg_pool_same(m, kernel)
            }
            None => self.cfg.binary.apply(g, v_raw),
        }
    }

    /// Final mask synthesis: output binary function (`T_R = 0.4`), nearest
    /// upsample to full resolution, hard threshold `t_m`, region freeze and
    /// optional shape post-processing.
    fn finalize(
        &self,
        m_raw: &Field2D,
        scale: usize,
        target: &Field2D,
        region_s: &Field2D,
    ) -> Field2D {
        let soft = self.cfg.output_binary.apply_field(m_raw);
        let soft = soft.hadamard(region_s); // frozen pixels stay opaque
        let full = if scale > 1 { upsample_nearest(&soft, scale) } else { soft };
        let mut binary = full.threshold(FINAL_THRESHOLD);
        if let Some(pp) = self.cfg.postprocess {
            binary = simplify_mask(&binary, target, pp).0;
        }
        binary
    }
}

/// Transfers the raw mask between stage scales.
fn resample_raw(m_raw: &Field2D, from: usize, to: usize) -> Field2D {
    if to == from {
        m_raw.clone()
    } else if to > from {
        assert!(to % from == 0, "scale {to} not a multiple of {from}");
        avg_pool_down(m_raw, to / from)
    } else {
        assert!(from % to == 0, "scale {from} not a multiple of {to}");
        upsample_nearest(m_raw, from / to)
    }
}

/// Sets `M'` to `frozen` wherever `region` is zero.
fn freeze(m_raw: &mut Field2D, region: &Field2D, frozen: f64) {
    let reg = region.as_slice();
    for (i, v) in m_raw.as_mut_slice().iter_mut().enumerate() {
        if reg[i] < 0.5 {
            *v = frozen;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilt_optics::{OpticsConfig, ProcessCondition, SourceSpec};

    fn test_sim(grid: usize) -> Arc<LithoSimulator> {
        let cfg = OpticsConfig {
            grid,
            nm_per_px: 8.0,
            num_kernels: 4,
            source: SourceSpec::Annular { sigma_in: 0.5, sigma_out: 0.9 },
            defocus_nm: 60.0,
            ..OpticsConfig::default()
        };
        Arc::new(LithoSimulator::new(cfg).expect("valid config"))
    }

    fn bar_target(n: usize) -> Field2D {
        Field2D::from_fn(n, n, |r, c| {
            if (n * 3 / 8..n * 5 / 8).contains(&r) && (n / 4..n * 3 / 4).contains(&c) {
                1.0
            } else {
                0.0
            }
        })
    }

    #[test]
    fn loss_decreases_over_low_res_iterations() {
        let sim = test_sim(64);
        let target = bar_target(64);
        let ilt = MultiLevelIlt::new(sim, IltConfig::default());
        let result = ilt.run(&target, &[Stage::low_res(2, 10)]);
        let first = result.loss_history.first().unwrap().loss;
        let last_min = result
            .loss_history
            .iter()
            .map(|r| r.loss)
            .fold(f64::INFINITY, f64::min);
        assert!(
            last_min < first * 0.9,
            "loss should drop by >10%: first {first}, best {last_min}"
        );
    }

    #[test]
    fn high_res_stage_runs_and_improves() {
        let sim = test_sim(64);
        let target = bar_target(64);
        let ilt = MultiLevelIlt::new(sim, IltConfig::default());
        let result = ilt.run(&target, &[Stage::high_res(2, 8)]);
        assert_eq!(result.total_iterations, 8);
        let first = result.loss_history.first().unwrap().loss;
        let best = result
            .loss_history
            .iter()
            .map(|r| r.loss)
            .fold(f64::INFINITY, f64::min);
        assert!(best < first, "high-res loss must improve: {best} vs {first}");
    }

    #[test]
    fn multi_stage_schedule_transfers_between_scales() {
        let sim = test_sim(64);
        let target = bar_target(64);
        let ilt = MultiLevelIlt::new(sim, IltConfig::default());
        let result = ilt.run(
            &target,
            &[Stage::low_res(4, 5), Stage::low_res(2, 5), Stage::high_res(4, 3)],
        );
        assert_eq!(result.total_iterations, 13);
        assert_eq!(result.final_scale, 4);
        assert_eq!(result.raw_mask.shape(), (16, 16));
        assert_eq!(result.mask.shape(), (64, 64));
        // Scales recorded faithfully.
        assert_eq!(result.loss_history[0].scale, 4);
        assert_eq!(result.loss_history[5].scale, 2);
        assert_eq!(result.loss_history[10].scale, 4);
    }

    #[test]
    fn final_mask_is_binary_and_prints_near_target() {
        let sim = test_sim(64);
        let target = bar_target(64);
        let ilt = MultiLevelIlt::new(sim.clone(), IltConfig::default());
        let result = ilt.run(&target, &[Stage::low_res(2, 15)]);
        for &v in result.mask.as_slice() {
            assert!(v == 0.0 || v == 1.0);
        }
        let print = sim.print(&result.mask, ProcessCondition::nominal());
        let err = print.xor_count(&target);
        // The optimized mask must print substantially closer to the target
        // than printing the raw target does.
        let baseline = sim.print(&target, ProcessCondition::nominal()).xor_count(&target);
        assert!(
            err <= baseline,
            "optimized print error {err} vs unoptimized {baseline}"
        );
    }

    #[test]
    fn early_exit_stops_a_stalled_stage() {
        let sim = test_sim(64);
        let target = bar_target(64);
        // A zero learning rate never improves: the stage should stop after
        // exactly window + 1 iterations.
        let cfg = IltConfig {
            learning_rate: 0.0,
            early_exit_window: Some(3),
            ..IltConfig::default()
        };
        let ilt = MultiLevelIlt::new(sim, cfg);
        let result = ilt.run(&target, &[Stage::low_res(2, 50)]);
        assert_eq!(result.total_iterations, 4);
    }

    #[test]
    fn region_freeze_keeps_outside_opaque() {
        let sim = test_sim(64);
        let target = bar_target(64);
        let cfg = IltConfig {
            region: OptimizeRegion::Option1 { margin_nm: 32.0 },
            ..IltConfig::default()
        };
        let ilt = MultiLevelIlt::new(sim, cfg.clone());
        let result = ilt.run(&target, &[Stage::low_res(2, 6)]);
        let region = cfg.region.region_mask(&target, 8.0);
        for (i, (&m, &reg)) in result
            .mask
            .as_slice()
            .iter()
            .zip(region.as_slice())
            .enumerate()
        {
            if reg < 0.5 {
                assert_eq!(m, 0.0, "pixel {i} outside the region must stay opaque");
            }
        }
    }

    #[test]
    fn smoothing_off_changes_the_result() {
        let sim = test_sim(64);
        let target = bar_target(64);
        let with = MultiLevelIlt::new(sim.clone(), IltConfig::default())
            .run(&target, &[Stage::low_res(2, 8)]);
        let without = MultiLevelIlt::new(
            sim,
            IltConfig { smoothing: None, ..IltConfig::default() },
        )
        .run(&target, &[Stage::low_res(2, 8)]);
        assert_ne!(with.raw_mask, without.raw_mask);
    }

    #[test]
    fn postprocess_runs_when_configured() {
        let sim = test_sim(64);
        let target = bar_target(64);
        let cfg = IltConfig {
            postprocess: Some(SimplifyConfig { min_area: 2, ..SimplifyConfig::default() }),
            ..IltConfig::default()
        };
        let ilt = MultiLevelIlt::new(sim, cfg);
        let result = ilt.run(&target, &[Stage::low_res(2, 6)]);
        for &v in result.mask.as_slice() {
            assert!(v == 0.0 || v == 1.0);
        }
    }

    #[test]
    fn resample_raw_round_trips() {
        let m = Field2D::from_fn(8, 8, |r, c| (r * 8 + c) as f64);
        let down = resample_raw(&m, 2, 4); // coarser
        assert_eq!(down.shape(), (4, 4));
        let up = resample_raw(&down, 4, 2);
        assert_eq!(up.shape(), (8, 8));
        assert_eq!(resample_raw(&m, 2, 2), m);
    }

    #[test]
    #[should_panic(expected = "schedule must contain")]
    fn empty_schedule_panics() {
        let sim = test_sim(64);
        let ilt = MultiLevelIlt::new(sim, IltConfig::default());
        let _ = ilt.run(&bar_target(64), &[]);
    }

    #[test]
    #[should_panic(expected = "too coarse")]
    fn absurd_scale_panics() {
        let sim = test_sim(64);
        let ilt = MultiLevelIlt::new(sim, IltConfig::default());
        let _ = ilt.run(&bar_target(64), &[Stage::low_res(16, 1)]);
    }
}

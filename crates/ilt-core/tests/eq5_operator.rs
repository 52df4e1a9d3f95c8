//! Holds the optimizer's fused step to the chain it replaced.
//!
//! [`MultiLevelIlt::step`] puts one Eq. 5 node on the tape
//! (`Graph::eq5_loss` over `LithoSimulator::soft_corners`); before that the
//! same step was thirteen nodes — Hopkins, resist, pool and loss per
//! corner (fifteen with the two pools of a high-resolution step). These
//! tests rebuild that chain through the public operators and assert loss and
//! `dL/dM'` agree to rounding at every `(m, P -> Q, up)` class the optimizer
//! runs, so the fused operator can only ever be a faster spelling of the
//! reference.

use std::sync::Arc;

use ilt_autodiff::{Graph, Var};
use ilt_core::{IltConfig, LossWeights, MultiLevelIlt, StageKind};
use ilt_field::{avg_pool_down, Field2D};
use ilt_layouts::iccad2013_case;
use ilt_optics::{LithoSimulator, OpticsConfig, ProcessCondition};

/// The step as `ilt-core` built it before the operator existed.
fn chain_step(
    sim: &Arc<LithoSimulator>,
    cfg: &IltConfig,
    kind: StageKind,
    s: usize,
    m_raw: &Field2D,
    z_t_s: &Field2D,
) -> (f64, Field2D, usize) {
    let mut g = Graph::new(sim.clone());
    let v_raw = g.leaf(m_raw.clone());
    let binary = cfg.binary;
    let mask = match kind {
        StageKind::LowRes => {
            let smoothed = g.avg_pool_same(v_raw, 3);
            binary.apply(&mut g, smoothed)
        }
        StageKind::HighRes => {
            let m_s = binary.apply(&mut g, v_raw);
            g.upsample_nearest(m_s, s)
        }
    };
    let (alpha, i_th) = (sim.config().resist_steepness, sim.config().resist_threshold);
    let wafer = |g: &mut Graph, cond: ProcessCondition| -> Var {
        let intensity = g.hopkins(mask, cond.defocus);
        let z = g.resist_sigmoid(intensity, alpha, cond.dose, i_th);
        match kind {
            StageKind::LowRes => z,
            StageKind::HighRes => g.avg_pool_down(z, s),
        }
    };
    let z_out = wafer(&mut g, ProcessCondition::outer());
    let z_in = wafer(&mut g, ProcessCondition::inner());
    let loss = cfg.loss_weights.build(&mut g, z_out, z_in, z_t_s, mask);
    let grads = g.backward(loss);
    (g.scalar(loss), grads.wrt(v_raw).expect("mask gradient").clone(), g.len())
}

fn max_abs(f: &Field2D) -> f64 {
    f.as_slice().iter().fold(0.0, |m: f64, v| m.max(v.abs()))
}

/// One evaluation size `m = grid` with its kernel block and sample grid.
struct Class {
    grid: usize,
    nm_per_px: f64,
    p: usize,
    q: usize,
    /// `(kind, s)`: a low-res step at `s = 1` runs the operator at `up = 1`,
    /// `m = grid`; a high-res step at `s` runs it at `up = s`, `n = grid/s`.
    steps: &'static [(StageKind, usize)],
}

use StageKind::{HighRes, LowRes};

/// `Q < m` by a large ratio: the paper-scale block on a high-res stage.
const Q_FAR_BELOW_M: Class = Class {
    grid: 512,
    nm_per_px: 4.0,
    p: 57,
    q: 128,
    steps: &[(LowRes, 1), (HighRes, 2), (HighRes, 4)],
};

/// `Q < m` by one octave.
const Q_AN_OCTAVE_BELOW_M: Class = Class {
    grid: 256,
    nm_per_px: 4.0,
    p: 29,
    q: 64,
    steps: &[(LowRes, 1), (HighRes, 2), (HighRes, 4)],
};

/// `Q < m` at `N`, `Q = m` at `N/s`: the mask transform and the gradient
/// inverse run on the sample grid's own size (`s = 2`) or below it (`s = 4`).
const Q_IS_M_AT_N_OVER_S: Class = Class {
    grid: 128,
    nm_per_px: 8.0,
    p: 29,
    q: 64,
    steps: &[(LowRes, 1), (LowRes, 2), (HighRes, 2), (HighRes, 4)],
};

/// `Q = m` at both sizes: no resampling anywhere.
const Q_IS_M: Class =
    Class { grid: 64, nm_per_px: 16.0, p: 29, q: 64, steps: &[(LowRes, 1), (HighRes, 2)] };

/// The kernel count only enters the two per-kernel loops and the weights
/// only the seeds, so each value appears once, not in every pair.
const SETTINGS: [(usize, &[LossWeights]); 2] = [
    (
        3,
        &[
            LossWeights::paper(),
            // The regularizers ride beside the node, on the mask at
            // simulated size.
            LossWeights { l2: 1.0, pvband: 1.0, curvature: 0.3, gray: 0.2 },
        ],
    ),
    (10, &[LossWeights { l2: 2.0, pvband: 0.5, curvature: 0.0, gray: 0.0 }]),
];

fn assert_fused_step_matches_chain(class: &Class) {
    let target = iccad2013_case(1).rasterize(class.grid);
    for (num_kernels, weights) in SETTINGS {
        let cfg = OpticsConfig {
            grid: class.grid,
            nm_per_px: class.nm_per_px,
            num_kernels,
            ..OpticsConfig::default()
        };
        let sim = Arc::new(LithoSimulator::new(cfg).expect("valid optics"));
        assert_eq!(sim.kernels(false).p(), class.p, "grid {}: kernel block", class.grid);
        assert_eq!(sim.sample_grid(class.grid), class.q, "grid {}: sample grid", class.grid);

        for (weights, &(kind, s)) in
            weights.iter().flat_map(|w| class.steps.iter().map(move |st| (w, st)))
        {
            let tag = format!(
                "grid {} @ {} nm, K {num_kernels}, {kind:?} s {s}, {weights:?}",
                class.grid, class.nm_per_px
            );
            let cfg = IltConfig { loss_weights: *weights, ..IltConfig::default() };
            let ilt = MultiLevelIlt::new(sim.clone(), cfg.clone());
            let z_t_s = avg_pool_down(&target, s);
            // Mid-optimization values: every sigmoid off its rails.
            let m_raw = Field2D::from_fn(class.grid / s, class.grid / s, |r, c| {
                z_t_s[(r, c)] + 0.3 * ((r as f64 * 0.37).sin() * (c as f64 * 0.23 + 0.4).cos())
            });

            let (loss, grad) = ilt.step(kind, s, &m_raw, &z_t_s);
            let (want_loss, want_grad, nodes) = chain_step(&sim, &cfg, kind, s, &m_raw, &z_t_s);
            if !weights.has_regularizers() {
                // Two pools more where the wafer images come back down.
                let want = if kind == LowRes { 13 } else { 15 };
                assert_eq!(nodes, want, "{tag}: the reference is the unfused chain");
            }

            assert!(want_loss > 1.0, "{tag}: degenerate loss {want_loss:e}");
            let err = (loss - want_loss).abs() / want_loss;
            assert!(err <= 1e-12, "{tag}: loss {loss} vs {want_loss} ({err:e})");
            let scale = max_abs(&want_grad);
            assert!(scale > 1e-3, "{tag}: degenerate gradient {scale:e}");
            let err = max_abs(&(&grad - &want_grad)) / scale;
            assert!(err <= 1e-12, "{tag}: gradient off by {err:e} of its max");
        }
    }
}

// One test per class, so the harness runs them side by side.

#[test]
fn fused_step_matches_the_chain_with_q_far_below_m() {
    assert_fused_step_matches_chain(&Q_FAR_BELOW_M);
}

#[test]
fn fused_step_matches_the_chain_with_q_an_octave_below_m() {
    assert_fused_step_matches_chain(&Q_AN_OCTAVE_BELOW_M);
}

#[test]
fn fused_step_matches_the_chain_with_q_equal_to_m_on_the_small_grid_only() {
    assert_fused_step_matches_chain(&Q_IS_M_AT_N_OVER_S);
}

#[test]
fn fused_step_matches_the_chain_with_q_equal_to_m_on_both_grids() {
    assert_fused_step_matches_chain(&Q_IS_M);
}

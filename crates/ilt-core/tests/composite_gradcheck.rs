//! Finite-difference check of the high-resolution stage's whole chain at
//! the shapes the optimizer runs it: `upsample_nearest(s) -> hopkins ->
//! resist_sigmoid -> avg_pool_down(s) -> sq_diff_sum`, on a grid where the
//! simulator's sample grid is smaller than the mask (`Q < m`), so both of
//! its resamplings and the `2P - 1` crop of the incoming gradient sit
//! between the loss and the mask — and of the tape-free function the
//! optimizer runs in its place, `LossWeights::eq5`, with both corners live.

use std::sync::Arc;

use ilt_autodiff::{assert_gradients_close_at, finite_diff_at, Graph};
use ilt_core::LossWeights;
use ilt_field::Field2D;
use ilt_layouts::Xorshift64Star;
use ilt_optics::{LithoSimulator, OpticsConfig, ProcessCondition};

const GRID: usize = 128;

fn loss(
    graph: &mut Graph,
    mask_s: &Field2D,
    target_s: &Field2D,
    s: usize,
    cond: ProcessCondition,
) -> (ilt_autodiff::Var, ilt_autodiff::Var) {
    let leaf = graph.leaf(mask_s.clone());
    let mask = graph.upsample_nearest(leaf, s);
    let intensity = graph.hopkins(mask, cond.defocus);
    let wafer = graph.resist_sigmoid(intensity, 50.0, cond.dose, 0.225);
    let wafer_s = graph.avg_pool_down(wafer, s);
    let target = graph.leaf(target_s.clone());
    (leaf, graph.sq_diff_sum(wafer_s, target))
}

fn sim() -> Arc<LithoSimulator> {
    let cfg = OpticsConfig {
        grid: GRID,
        nm_per_px: 4.0,
        num_kernels: 4,
        ..OpticsConfig::default()
    };
    let sim = Arc::new(LithoSimulator::new(cfg).expect("valid optics"));
    assert!(
        sim.sample_grid(GRID) < GRID,
        "the chain must cross the resampled path"
    );
    sim
}

/// A smooth mask and a bar target on the `GRID / s` grid, and eight seeded
/// pixels to probe.
fn fixture(s: usize) -> (Field2D, Field2D, Vec<(usize, usize)>) {
    let n = GRID / s;
    let mask_s = Field2D::from_fn(n, n, |r, c| {
        0.5 + 0.35
            * ((r as f64 * 0.7 * s as f64 / 4.0).sin()
                * (c as f64 * 0.45 * s as f64 / 4.0 + 0.2).cos())
    });
    let target_s = Field2D::from_fn(n, n, |r, c| {
        if (n * 3 / 8..n * 5 / 8).contains(&r) && (n / 4..n * 3 / 4).contains(&c) {
            1.0
        } else {
            0.0
        }
    });
    let mut rng = Xorshift64Star::new(0xc0de + s as u64);
    let mut coord = || rng.gen_range_u32(0, n as u32 - 1) as usize;
    let pixels = (0..8).map(|_| (coord(), coord())).collect();
    (mask_s, target_s, pixels)
}

#[test]
fn fused_eq5_node_gradient_matches_finite_differences() {
    let sim = sim();
    for s in [1usize, 2, 4] {
        let (mask_s, target_s, pixels) = fixture(s);
        let weights = LossWeights { l2: 2.0, pvband: 0.5, ..LossWeights::default() };
        let eq5 = |m: &Field2D| weights.eq5(&sim, m, s, &target_s);
        let analytic = eq5(&mask_s).1;
        let numeric = finite_diff_at(&mask_s, 1e-5, &pixels, |m| eq5(m).0);
        let scale = analytic
            .as_slice()
            .iter()
            .fold(0.0, |m: f64, v| m.max(v.abs()));
        assert!(scale > 1e-3, "s={s}: degenerate gradient {scale:e}");
        assert_gradients_close_at(&analytic, &pixels, &numeric, 1e-5, 1e-2 * scale);
    }
}

#[test]
fn high_res_chain_gradient_matches_finite_differences() {
    let sim = sim();
    for s in [2usize, 4] {
        let (mask_s, target_s, pixels) = fixture(s);

        for cond in [ProcessCondition::inner(), ProcessCondition::outer()] {
            let mut graph = Graph::new(sim.clone());
            let (leaf, l) = loss(&mut graph, &mask_s, &target_s, s, cond);
            let grads = graph.backward(l);
            let analytic = grads.wrt(leaf).expect("mask gradient");

            let numeric = finite_diff_at(&mask_s, 1e-5, &pixels, |m| {
                let mut graph = Graph::new(sim.clone());
                let (_, l) = loss(&mut graph, m, &target_s, s, cond);
                graph.scalar(l)
            });
            let scale = analytic
                .as_slice()
                .iter()
                .fold(0.0, |m: f64, v| m.max(v.abs()));
            assert!(
                scale > 1e-3,
                "s={s} {cond:?}: degenerate gradient {scale:e}"
            );
            assert_gradients_close_at(analytic, &pixels, &numeric, 1e-5, 1e-2 * scale);
        }
    }
}

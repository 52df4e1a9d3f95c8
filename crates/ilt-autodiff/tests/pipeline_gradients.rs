//! End-to-end gradient checks through the full ILT forward pipeline,
//! including the Hopkins imaging node, plus property checks of the
//! linear-operator adjoints over `CASES` inputs drawn from a seeded
//! `Xorshift64Star` (a failure replays from its case number).

use std::sync::Arc;

use ilt_autodiff::{assert_gradients_close, finite_diff, finite_diff_at, Graph};
use ilt_field::{avg_pool_down, avg_pool_same, upsample_nearest, Field2D};
use ilt_layouts::Xorshift64Star;
use ilt_optics::{LithoSimulator, OpticsConfig, SourceSpec};

const CASES: u64 = 24;

/// Uniform in `[lo, hi)`, from the generator's top 53 bits.
fn uniform(rng: &mut Xorshift64Star, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * ((rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
}

fn field(rng: &mut Xorshift64Star, n: usize, bound: f64) -> Field2D {
    Field2D::from_vec(n, n, (0..n * n).map(|_| uniform(rng, -bound, bound)).collect())
}

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

fn wavy(n: usize) -> Field2D {
    Field2D::from_fn(n, n, |r, c| {
        0.5 + 0.35 * ((r as f64 * 0.7).sin() * (c as f64 * 0.45 + 0.2).cos())
    })
}

/// The full low-resolution ILT forward pass (Algorithm 1, flag = 0):
/// smoothing pool -> sigmoid binarization -> Hopkins -> sigmoid resist ->
/// Eq. 5 loss, differentiated end to end and checked by finite differences.
#[test]
fn low_res_pipeline_gradient_matches_fd() {
    let sim = test_sim(32);
    let m0 = wavy(32);
    let target = Field2D::from_fn(32, 32, |r, c| {
        if (10..22).contains(&r) && (8..26).contains(&c) {
            1.0
        } else {
            0.0
        }
    });

    let eval = |mv: &Field2D| -> f64 {
        let mut g = Graph::new(sim.clone());
        let m_raw = g.leaf(mv.clone());
        let smoothed = g.avg_pool_same(m_raw, 3);
        let m = g.sigmoid(smoothed, 4.0, 0.5);
        let i_out = g.hopkins(m, false);
        let z_out = g.resist_sigmoid(i_out, 50.0, 1.02, 0.225);
        let i_in = g.hopkins(m, true);
        let z_in = g.resist_sigmoid(i_in, 50.0, 0.98, 0.225);
        let t = g.leaf(target.clone());
        let l2 = g.sq_diff_sum(z_out, t);
        let pvb = g.sq_diff_sum(z_in, z_out);
        let loss = g.add(l2, pvb);
        g.scalar(loss)
    };

    let mut g = Graph::new(sim.clone());
    let m_raw = g.leaf(m0.clone());
    let smoothed = g.avg_pool_same(m_raw, 3);
    let m = g.sigmoid(smoothed, 4.0, 0.5);
    let i_out = g.hopkins(m, false);
    let z_out = g.resist_sigmoid(i_out, 50.0, 1.02, 0.225);
    let i_in = g.hopkins(m, true);
    let z_in = g.resist_sigmoid(i_in, 50.0, 0.98, 0.225);
    let t = g.leaf(target.clone());
    let l2 = g.sq_diff_sum(z_out, t);
    let pvb = g.sq_diff_sum(z_in, z_out);
    let loss = g.add(l2, pvb);
    let grads = g.backward(loss);
    let analytic = grads.wrt(m_raw).expect("mask gradient");

    let probes = [(0usize, 0usize), (5, 9), (16, 16), (31, 31), (12, 20), (25, 3)];
    let numeric = finite_diff_at(&m0, 1e-5, &probes, eval);
    for (&(r, c), &n) in probes.iter().zip(&numeric) {
        let a = analytic[(r, c)];
        assert!(
            (a - n).abs() <= 2e-4 * n.abs().max(1.0),
            "({r},{c}): analytic {a} vs numeric {n}"
        );
    }
}

/// The high-resolution ILT forward pass (Algorithm 1, flag = 1): sigmoid ->
/// upsample -> Hopkins at full size -> resist -> pooled loss.
#[test]
fn high_res_pipeline_gradient_matches_fd() {
    let sim = test_sim(32);
    let s = 2usize;
    let m0 = wavy(16);
    let target_s = Field2D::from_fn(16, 16, |r, c| {
        if (5..11).contains(&r) && (4..13).contains(&c) {
            1.0
        } else {
            0.0
        }
    });

    let eval = |mv: &Field2D| -> f64 {
        let mut g = Graph::new(sim.clone());
        let m_raw = g.leaf(mv.clone());
        let m_s = g.sigmoid(m_raw, 4.0, 0.5);
        let m_full = g.upsample_nearest(m_s, s);
        let i = g.hopkins(m_full, false);
        let z = g.resist_sigmoid(i, 50.0, 1.0, 0.225);
        let z_s = g.avg_pool_down(z, s);
        let t = g.leaf(target_s.clone());
        let loss = g.sq_diff_sum(z_s, t);
        g.scalar(loss)
    };

    let mut g = Graph::new(sim.clone());
    let m_raw = g.leaf(m0.clone());
    let m_s = g.sigmoid(m_raw, 4.0, 0.5);
    let m_full = g.upsample_nearest(m_s, s);
    let i = g.hopkins(m_full, false);
    let z = g.resist_sigmoid(i, 50.0, 1.0, 0.225);
    let z_s = g.avg_pool_down(z, s);
    let t = g.leaf(target_s.clone());
    let loss = g.sq_diff_sum(z_s, t);
    let grads = g.backward(loss);
    let analytic = grads.wrt(m_raw).expect("mask gradient");

    let probes = [(0usize, 0usize), (7, 7), (15, 15), (3, 12), (10, 5)];
    let numeric = finite_diff_at(&m0, 1e-5, &probes, eval);
    for (&(r, c), &n) in probes.iter().zip(&numeric) {
        let a = analytic[(r, c)];
        assert!(
            (a - n).abs() <= 2e-4 * n.abs().max(1.0),
            "({r},{c}): analytic {a} vs numeric {n}"
        );
    }
}

/// Gradients are themselves linear in the upstream seed for linear ops.
#[test]
fn linear_ops_have_linear_adjoints() {
    let x0 = wavy(8);
    let w1 = Field2D::from_fn(4, 4, |r, c| (r + c) as f64 * 0.25);
    let w2 = Field2D::from_fn(4, 4, |r, c| (r as f64) - (c as f64));

    let grad_for = |w: &Field2D| -> Field2D {
        let mut g = Graph::without_simulator();
        let x = g.leaf(x0.clone());
        let y = g.avg_pool_down(x, 2);
        let loss = g.weighted_sum(y, w.clone());
        let grads = g.backward(loss);
        grads.wrt(x).unwrap().clone()
    };
    let ga = grad_for(&w1);
    let gb = grad_for(&w2);
    let combined = grad_for(&(&w1 + &w2));
    assert_gradients_close(&combined, &(&ga + &gb), 1e-10);
}

/// Adjoint identity <A x, y> == <x, A^T y> for the pooling trio.
#[test]
fn pooling_adjoint_identity() {
    let mut rng = Xorshift64Star::new(1);
    for case in 0..CASES {
        let (x, y) = (field(&mut rng, 8, 2.0), field(&mut rng, 4, 2.0));
        // A = avg_pool_down(s=2); A^T = upsample / s^2.
        let lhs = avg_pool_down(&x, 2).hadamard(&y).sum();
        let rhs = x.hadamard(&upsample_nearest(&y, 2).scale(0.25)).sum();
        assert!((lhs - rhs).abs() < 1e-9, "case {case}: {lhs} vs {rhs}");
    }
}

/// The same-size mean filter is self-adjoint.
#[test]
fn smoothing_self_adjoint() {
    let mut rng = Xorshift64Star::new(2);
    for case in 0..CASES {
        let (x, y) = (field(&mut rng, 6, 2.0), field(&mut rng, 6, 2.0));
        let lhs = avg_pool_same(&x, 3).hadamard(&y).sum();
        let rhs = x.hadamard(&avg_pool_same(&y, 3)).sum();
        assert!((lhs - rhs).abs() < 1e-9, "case {case}: {lhs} vs {rhs}");
    }
}

/// Graph sigmoid gradient equals the closed form everywhere.
#[test]
fn sigmoid_gradient_closed_form() {
    let mut rng = Xorshift64Star::new(3);
    for case in 0..CASES {
        let x0 = field(&mut rng, 4, 3.0);
        let (beta, t_r) = (uniform(&mut rng, 0.5, 8.0), uniform(&mut rng, -0.5, 1.0));
        let mut g = Graph::without_simulator();
        let x = g.leaf(x0.clone());
        let y = g.sigmoid(x, beta, t_r);
        let loss = g.weighted_sum(y, Field2D::filled(4, 4, 1.0));
        let grads = g.backward(loss);
        let got = grads.wrt(x).unwrap();
        for (i, &xv) in x0.as_slice().iter().enumerate() {
            let s = 1.0 / (1.0 + (-beta * (xv - t_r)).exp());
            let want = beta * s * (1.0 - s);
            assert!((got.as_slice()[i] - want).abs() < 1e-10, "case {case}, pixel {i}");
        }
    }
}

/// A fully dense finite-difference check of a small mixed graph.
#[test]
fn dense_fd_check_mixed_graph() {
    let x0 = wavy(6);
    let eval = |xv: &Field2D| -> f64 {
        let mut g = Graph::without_simulator();
        let x = g.leaf(xv.clone());
        let s = g.avg_pool_same(x, 3);
        let y = g.sigmoid(s, 6.0, 0.4);
        let z = g.mul(y, x);
        let t = g.leaf(Field2D::filled(6, 6, 0.25));
        let loss = g.sq_diff_sum(z, t);
        g.scalar(loss)
    };
    let mut g = Graph::without_simulator();
    let x = g.leaf(x0.clone());
    let s = g.avg_pool_same(x, 3);
    let y = g.sigmoid(s, 6.0, 0.4);
    let z = g.mul(y, x);
    let t = g.leaf(Field2D::filled(6, 6, 0.25));
    let loss = g.sq_diff_sum(z, t);
    let grads = g.backward(loss);
    let numeric = finite_diff(&x0, 1e-6, eval);
    assert_gradients_close(grads.wrt(x).unwrap(), &numeric, 1e-5);
}

//! The differentiable computation graph.
//!
//! A [`Graph`] records every operation applied to [`Var`] handles during the
//! forward pass; [`Graph::backward`] then walks the tape in reverse,
//! accumulating vector–Jacobian products. The operator set is exactly what
//! Algorithm 1 of the paper needs — nothing more — which keeps each adjoint
//! rule small, hand-derivable and testable against finite differences.

use std::fmt;
use std::sync::Arc;

use ilt_field::{avg_pool_down, avg_pool_same, upsample_nearest, Field2D};
use ilt_optics::{logistic_in_place, AerialCache, LithoSimulator, ProcessCondition};

/// Handle to a node in a [`Graph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Var(usize);

enum Op {
    Leaf,
    Add(Var, Var),
    Mul(Var, Var),
    Scale(Var, f64),
    /// Eq. 11: `y = 1 / (1 + exp(-beta (x - t_r)))`; only `beta` is
    /// needed by the adjoint (`dy/dx = beta y (1 - y)`).
    Sigmoid { x: Var, beta: f64 },
    /// Eq. 10: `y = (1 + cos x) / 2`.
    Cosine { x: Var },
    /// Eq. 9 with dose: the adjoint needs only `alpha * dose`
    /// (`dy/dx = alpha dose y (1 - y)`).
    ResistSigmoid { x: Var, alpha: f64, dose: f64 },
    AvgPoolDown { x: Var, s: usize },
    AvgPoolSame { x: Var, n: usize },
    UpsampleNearest { x: Var, s: usize },
    /// Hopkins aerial image (Eq. 3/8) with the adjoint cache kept for
    /// backward.
    Hopkins { x: Var, cache: AerialCache },
    /// The Eq. 5 scalar of the process-window operator. Its forward runs
    /// the adjoint too, so the node carries `dL/dx` itself.
    Eq5Loss { x: Var, grad: Field2D },
    /// Scalar `sum((a - b)^2)`, stored as a 1x1 field.
    SqDiffSum { a: Var, b: Var },
    /// Scalar `sum(x .* w)` against a constant weight field.
    WeightedSum { x: Var, weights: Field2D },
}

struct Node {
    value: Field2D,
    op: Op,
}

/// A reverse-mode tape over [`Field2D`] values.
///
/// # Examples
///
/// ```
/// use ilt_autodiff::Graph;
/// use ilt_field::Field2D;
///
/// let mut g = Graph::without_simulator();
/// let x = g.leaf(Field2D::filled(2, 2, 0.3));
/// let y = g.sigmoid(x, 4.0, 0.5);          // the paper's binary function
/// let target = g.leaf(Field2D::filled(2, 2, 1.0));
/// let loss = g.sq_diff_sum(y, target);
/// let grads = g.backward(loss);
/// assert!(grads.wrt(x).is_some());
/// ```
pub struct Graph {
    nodes: Vec<Node>,
    sim: Option<Arc<LithoSimulator>>,
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("nodes", &self.nodes.len())
            .field("has_simulator", &self.sim.is_some())
            .finish()
    }
}

impl Graph {
    /// Creates a graph able to record Hopkins imaging nodes through `sim`.
    pub fn new(sim: Arc<LithoSimulator>) -> Self {
        Graph { nodes: Vec::new(), sim: Some(sim) }
    }

    /// Creates a graph without lithography support (pure field math).
    ///
    /// [`Graph::hopkins`] panics on such a graph.
    pub fn without_simulator() -> Self {
        Graph { nodes: Vec::new(), sim: None }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    fn push(&mut self, value: Field2D, op: Op) -> Var {
        self.nodes.push(Node { value, op });
        Var(self.nodes.len() - 1)
    }

    /// Records an input (leaf) value.
    pub fn leaf(&mut self, value: Field2D) -> Var {
        self.push(value, Op::Leaf)
    }

    /// The forward value of a node.
    pub fn value(&self, v: Var) -> &Field2D {
        &self.nodes[v.0].value
    }

    /// The forward value of a scalar (1x1) node.
    ///
    /// # Panics
    ///
    /// Panics if the node is not 1x1.
    pub fn scalar(&self, v: Var) -> f64 {
        let f = self.value(v);
        assert_eq!(f.shape(), (1, 1), "node is not a scalar");
        f[(0, 0)]
    }

    /// Elementwise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a) + self.value(b);
        self.push(value, Op::Add(a, b))
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).hadamard(self.value(b));
        self.push(value, Op::Mul(a, b))
    }

    /// Scalar multiple.
    pub fn scale(&mut self, x: Var, c: f64) -> Var {
        let value = self.value(x).scale(c);
        self.push(value, Op::Scale(x, c))
    }

    /// The mask binary function of Eq. 11:
    /// `y = 1 / (1 + exp(-beta (x - t_r)))`.
    pub fn sigmoid(&mut self, x: Var, beta: f64, t_r: f64) -> Var {
        let value = logistic_map(self.value(x), |v| -beta * (v - t_r));
        self.push(value, Op::Sigmoid { x, beta })
    }

    /// The cosine binary function of Eq. 10: `y = (1 + cos x) / 2`.
    pub fn cosine_binary(&mut self, x: Var) -> Var {
        let value = self.value(x).map(|v| 0.5 * (1.0 + v.cos()));
        self.push(value, Op::Cosine { x })
    }

    /// The sigmoid resist model of Eq. 9 under a dose factor:
    /// `y = 1 / (1 + exp(-alpha (dose x - i_th)))`.
    pub fn resist_sigmoid(&mut self, x: Var, alpha: f64, dose: f64, i_th: f64) -> Var {
        let value = logistic_map(self.value(x), |v| -alpha * (dose * v - i_th));
        self.push(value, Op::ResistSigmoid { x, alpha, dose })
    }

    /// Downsampling average pool (Algorithm 1 lines 2/9).
    ///
    /// # Panics
    ///
    /// Panics if `s` does not divide the field dimensions.
    pub fn avg_pool_down(&mut self, x: Var, s: usize) -> Var {
        let value = avg_pool_down(self.value(x), s);
        self.push(value, Op::AvgPoolDown { x, s })
    }

    /// Same-size smoothing pool (Algorithm 1 line 11).
    ///
    /// # Panics
    ///
    /// Panics if `n` is even.
    pub fn avg_pool_same(&mut self, x: Var, n: usize) -> Var {
        let value = avg_pool_same(self.value(x), n);
        self.push(value, Op::AvgPoolSame { x, n })
    }

    /// Nearest-neighbor upsample (Algorithm 1 line 7).
    pub fn upsample_nearest(&mut self, x: Var, s: usize) -> Var {
        let value = upsample_nearest(self.value(x), s);
        self.push(value, Op::UpsampleNearest { x, s })
    }

    /// Hopkins aerial image of a mask node (Eq. 3 at full size, Eq. 8 at a
    /// reduced size), differentiable through the simulator's adjoint.
    ///
    /// # Panics
    ///
    /// Panics if the graph was created without a simulator, or if the mask
    /// shape is rejected by the simulator.
    pub fn hopkins(&mut self, x: Var, defocus: bool) -> Var {
        let sim = self
            .sim
            .clone()
            .expect("graph was created without a lithography simulator");
        let (value, cache) = sim.aerial_with_cache(self.value(x), defocus);
        self.push(value, Op::Hopkins { x, cache })
    }

    /// Eq. 5 of the mask `upsample_nearest(x, up)` in one node:
    /// `l2 ||Z_out - target||^2 + pvb ||Z_in - Z_out||^2`, with `Z_out` /
    /// `Z_in` the sigmoid-resist wafer images at the outer / inner process
    /// corner, average-pooled by `up` back to `x`'s grid.
    ///
    /// Same value and gradient as [`Graph::upsample_nearest`] ->
    /// [`Graph::hopkins`] -> [`Graph::resist_sigmoid`] ->
    /// [`Graph::avg_pool_down`] -> [`Graph::sq_diff_sum`] spelled out for
    /// both corners, through [`LithoSimulator::soft_corners`], which keeps
    /// every field but one plane per corner at `x`'s size.
    ///
    /// # Panics
    ///
    /// Panics if the graph was created without a simulator, or if the mask
    /// shape, `up` or the target's shape is rejected by the simulator.
    pub fn eq5_loss(&mut self, x: Var, up: usize, target: &Field2D, l2: f64, pvb: f64) -> Var {
        let sim = self
            .sim
            .clone()
            .expect("graph was created without a lithography simulator");
        let corners = [ProcessCondition::outer(), ProcessCondition::inner()];
        let (value, grad) = sim.soft_corners(self.value(x), up, &corners, |z| {
            let (z_out, z_in) = (&z[0], &z[1]);
            assert_eq!(target.shape(), z_out.shape(), "target must match the wafer image");
            // One pass: both squared distances summed in index order (as
            // `sq_l2_dist` does) beside the two seeds.
            let mut seed_out = Field2D::zeros(target.rows(), target.cols());
            let mut seed_in = seed_out.clone();
            let (mut to_target, mut between) = (0.0, 0.0);
            let pixels = z_out.as_slice().iter().zip(z_in.as_slice()).zip(target.as_slice());
            let seeds = seed_out.as_mut_slice().iter_mut().zip(seed_in.as_mut_slice());
            for (((&zo, &zi), &t), (so, si)) in pixels.zip(seeds) {
                let (d_out, d_in) = (zo - t, zi - zo);
                to_target += d_out * d_out;
                between += d_in * d_in;
                *si = d_in * (2.0 * pvb);
                *so = d_out * (2.0 * l2) - *si;
            }
            (l2 * to_target + pvb * between, vec![seed_out, seed_in])
        });
        self.push(Field2D::from_vec(1, 1, vec![value]), Op::Eq5Loss { x, grad })
    }

    /// Scalar loss `sum((a - b)^2)` — both `L_l2` and `L_pvb` of Eq. 5.
    pub fn sq_diff_sum(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).sq_l2_dist(self.value(b));
        self.push(Field2D::from_vec(1, 1, vec![value]), Op::SqDiffSum { a, b })
    }

    /// Scalar probe `sum(x .* w)` against a constant weight field (used by
    /// gradient checking and diagnostics).
    ///
    /// # Panics
    ///
    /// Panics if `weights` has a different shape than `x`.
    pub fn weighted_sum(&mut self, x: Var, weights: Field2D) -> Var {
        let value = self.value(x).hadamard(&weights).sum();
        self.push(Field2D::from_vec(1, 1, vec![value]), Op::WeightedSum { x, weights })
    }

    /// Reverse pass from a scalar loss node: returns gradients of the loss
    /// with respect to every node (leaves included).
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a scalar (1x1) node.
    pub fn backward(&self, loss: Var) -> Gradients {
        assert_eq!(
            self.value(loss).shape(),
            (1, 1),
            "backward must start from a scalar node"
        );
        let mut grads: Vec<Option<Field2D>> = vec![None; self.nodes.len()];
        grads[loss.0] = Some(Field2D::filled(1, 1, 1.0));

        for idx in (0..self.nodes.len()).rev() {
            // Out of its slot while the node's rule fills earlier ones.
            let Some(gout) = grads[idx].take() else { continue };
            match &self.nodes[idx].op {
                Op::Leaf => {}
                Op::Add(a, b) => {
                    accumulate(&mut grads, *a, gout.clone());
                    accumulate(&mut grads, *b, gout.clone());
                }
                Op::Mul(a, b) => {
                    let ga = gout.hadamard(self.value(*b));
                    let gb = gout.hadamard(self.value(*a));
                    accumulate(&mut grads, *a, ga);
                    accumulate(&mut grads, *b, gb);
                }
                Op::Scale(x, c) => accumulate(&mut grads, *x, gout.scale(*c)),
                Op::Sigmoid { x, beta } => {
                    let y = &self.nodes[idx].value;
                    let gx = gout.zip_map(y, |g, yv| g * beta * yv * (1.0 - yv));
                    accumulate(&mut grads, *x, gx);
                }
                Op::Cosine { x } => {
                    let gx = gout.zip_map(self.value(*x), |g, xv| -0.5 * xv.sin() * g);
                    accumulate(&mut grads, *x, gx);
                }
                Op::ResistSigmoid { x, alpha, dose } => {
                    let y = &self.nodes[idx].value;
                    let k = alpha * dose;
                    let gx = gout.zip_map(y, |g, yv| g * k * yv * (1.0 - yv));
                    accumulate(&mut grads, *x, gx);
                }
                Op::AvgPoolDown { x, s } => {
                    // Each input pixel contributed 1/s^2 to one output pixel.
                    let spread = upsample_nearest(&gout, *s).scale(1.0 / (s * s) as f64);
                    accumulate(&mut grads, *x, spread);
                }
                Op::AvgPoolSame { x, n } => {
                    // The centered same-size mean filter is self-adjoint.
                    accumulate(&mut grads, *x, avg_pool_same(&gout, *n));
                }
                Op::UpsampleNearest { x, s } => {
                    // Adjoint of replication is the block sum.
                    let summed = avg_pool_down(&gout, *s).scale((s * s) as f64);
                    accumulate(&mut grads, *x, summed);
                }
                Op::Hopkins { x, cache } => {
                    let sim = self.sim.as_ref().expect("hopkins node requires simulator");
                    accumulate(&mut grads, *x, sim.aerial_vjp(cache, &gout));
                }
                Op::Eq5Loss { x, grad } => accumulate(&mut grads, *x, grad.scale(gout[(0, 0)])),
                Op::SqDiffSum { a, b } => {
                    let g = gout[(0, 0)];
                    let diff = self.value(*a) - self.value(*b);
                    accumulate(&mut grads, *a, diff.scale(2.0 * g));
                    accumulate(&mut grads, *b, diff.scale(-2.0 * g));
                }
                Op::WeightedSum { x, weights } => {
                    accumulate(&mut grads, *x, weights.scale(gout[(0, 0)]));
                }
            }
            // Back in: callers may query gradients of interior nodes too.
            grads[idx] = Some(gout);
        }
        Gradients { grads }
    }
}

/// `1 / (1 + e^arg(v))` of every pixel: the argument pass, then the
/// shared logistic over the whole field.
fn logistic_map(x: &Field2D, arg: impl Fn(f64) -> f64) -> Field2D {
    let mut y = x.map(arg);
    logistic_in_place(y.as_mut_slice());
    y
}

fn accumulate(grads: &mut [Option<Field2D>], v: Var, g: Field2D) {
    match &mut grads[v.0] {
        Some(existing) => *existing += &g,
        slot @ None => *slot = Some(g),
    }
}

/// Gradients produced by [`Graph::backward`].
#[derive(Debug)]
pub struct Gradients {
    grads: Vec<Option<Field2D>>,
}

impl Gradients {
    /// Gradient of the loss with respect to node `v`, if `v` influenced the
    /// loss.
    pub fn wrt(&self, v: Var) -> Option<&Field2D> {
        self.grads.get(v.0).and_then(Option::as_ref)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Central finite-difference gradient of `f` at `x`, probed elementwise.
    fn finite_diff(
        x: &Field2D,
        eps: f64,
        mut f: impl FnMut(&Field2D) -> f64,
    ) -> Field2D {
        let (rows, cols) = x.shape();
        Field2D::from_fn(rows, cols, |r, c| {
            let mut xp = x.clone();
            xp[(r, c)] += eps;
            let mut xm = x.clone();
            xm[(r, c)] -= eps;
            (f(&xp) - f(&xm)) / (2.0 * eps)
        })
    }

    fn assert_grad_close(analytic: &Field2D, numeric: &Field2D, tol: f64) {
        assert_eq!(analytic.shape(), numeric.shape());
        for (i, (&a, &n)) in analytic
            .as_slice()
            .iter()
            .zip(numeric.as_slice())
            .enumerate()
        {
            assert!(
                (a - n).abs() <= tol * n.abs().max(1.0),
                "pixel {i}: analytic {a} vs numeric {n}"
            );
        }
    }

    fn test_input(rows: usize, cols: usize) -> Field2D {
        Field2D::from_fn(rows, cols, |r, c| {
            0.5 + 0.4 * ((r as f64 * 0.9).sin() * (c as f64 * 0.55 + 0.3).cos())
        })
    }

    #[test]
    fn sigmoid_gradient_matches_fd() {
        let x0 = test_input(4, 4);
        let target = Field2D::filled(4, 4, 1.0);
        let mut g = Graph::without_simulator();
        let x = g.leaf(x0.clone());
        let t = g.leaf(target.clone());
        let y = g.sigmoid(x, 4.0, 0.5);
        let loss = g.sq_diff_sum(y, t);
        let grads = g.backward(loss);

        let numeric = finite_diff(&x0, 1e-6, |xv| {
            let mut g2 = Graph::without_simulator();
            let x2 = g2.leaf(xv.clone());
            let t2 = g2.leaf(target.clone());
            let y2 = g2.sigmoid(x2, 4.0, 0.5);
            let l2 = g2.sq_diff_sum(y2, t2);
            g2.scalar(l2)
        });
        assert_grad_close(grads.wrt(x).unwrap(), &numeric, 1e-6);
    }

    #[test]
    fn cosine_binary_gradient_matches_fd() {
        let x0 = test_input(3, 5);
        let w = Field2D::from_fn(3, 5, |r, c| (r as f64 - c as f64) * 0.3);
        let mut g = Graph::without_simulator();
        let x = g.leaf(x0.clone());
        let y = g.cosine_binary(x);
        let loss = g.weighted_sum(y, w.clone());
        let grads = g.backward(loss);

        let numeric = finite_diff(&x0, 1e-6, |xv| {
            let mut g2 = Graph::without_simulator();
            let x2 = g2.leaf(xv.clone());
            let y2 = g2.cosine_binary(x2);
            let l2 = g2.weighted_sum(y2, w.clone());
            g2.scalar(l2)
        });
        assert_grad_close(grads.wrt(x).unwrap(), &numeric, 1e-6);
    }

    #[test]
    fn pooling_gradients_match_fd() {
        let x0 = test_input(8, 8);
        let w = Field2D::from_fn(4, 4, |r, c| ((r * 3 + c) % 5) as f64 - 2.0);
        let mut g = Graph::without_simulator();
        let x = g.leaf(x0.clone());
        let y = g.avg_pool_down(x, 2);
        let loss = g.weighted_sum(y, w.clone());
        let grads = g.backward(loss);
        let numeric = finite_diff(&x0, 1e-6, |xv| {
            avg_pool_down(xv, 2).hadamard(&w).sum()
        });
        assert_grad_close(grads.wrt(x).unwrap(), &numeric, 1e-6);
    }

    #[test]
    fn smoothing_pool_gradient_matches_fd() {
        let x0 = test_input(6, 6);
        let w = Field2D::from_fn(6, 6, |r, c| ((r + 2 * c) % 7) as f64 * 0.2 - 0.5);
        let mut g = Graph::without_simulator();
        let x = g.leaf(x0.clone());
        let y = g.avg_pool_same(x, 3);
        let loss = g.weighted_sum(y, w.clone());
        let grads = g.backward(loss);
        let numeric = finite_diff(&x0, 1e-6, |xv| avg_pool_same(xv, 3).hadamard(&w).sum());
        assert_grad_close(grads.wrt(x).unwrap(), &numeric, 1e-6);
    }

    #[test]
    fn upsample_gradient_matches_fd() {
        let x0 = test_input(3, 3);
        let w = Field2D::from_fn(6, 6, |r, c| (r as f64 * 0.1) - (c as f64 * 0.07));
        let mut g = Graph::without_simulator();
        let x = g.leaf(x0.clone());
        let y = g.upsample_nearest(x, 2);
        let loss = g.weighted_sum(y, w.clone());
        let grads = g.backward(loss);
        let numeric = finite_diff(&x0, 1e-6, |xv| upsample_nearest(xv, 2).hadamard(&w).sum());
        assert_grad_close(grads.wrt(x).unwrap(), &numeric, 1e-6);
    }

    #[test]
    fn arithmetic_chain_gradient_matches_fd() {
        // loss = sum(((a + 2b) .* a - b)^2-ish chain)
        let a0 = test_input(4, 4);
        let b0 = test_input(4, 4).map(|v| 1.2 - v);
        let run = |av: &Field2D, bv: &Field2D| -> (f64, Option<(Field2D, Field2D)>) {
            let mut g = Graph::without_simulator();
            let a = g.leaf(av.clone());
            let b = g.leaf(bv.clone());
            let b2 = g.scale(b, 2.0);
            let s = g.add(a, b2);
            let p = g.mul(s, a);
            let minus_b = g.scale(b, -1.0);
            let d = g.add(p, minus_b);
            let zero = g.leaf(Field2D::zeros(4, 4));
            let loss = g.sq_diff_sum(d, zero);
            let grads = g.backward(loss);
            (
                g.scalar(loss),
                Some((grads.wrt(a).unwrap().clone(), grads.wrt(b).unwrap().clone())),
            )
        };
        let (_, got) = run(&a0, &b0);
        let (ga, gb) = got.unwrap();
        let na = finite_diff(&a0, 1e-6, |av| run(av, &b0).0);
        let nb = finite_diff(&b0, 1e-6, |bv| run(&a0, bv).0);
        assert_grad_close(&ga, &na, 1e-5);
        assert_grad_close(&gb, &nb, 1e-5);
    }

    #[test]
    fn resist_sigmoid_gradient_matches_fd() {
        let x0 = test_input(4, 4).scale(0.5);
        let w = Field2D::filled(4, 4, 1.0);
        let mut g = Graph::without_simulator();
        let x = g.leaf(x0.clone());
        let y = g.resist_sigmoid(x, 25.0, 1.02, 0.225);
        let loss = g.weighted_sum(y, w.clone());
        let grads = g.backward(loss);
        let numeric = finite_diff(&x0, 1e-6, |xv| {
            xv.map(|v| 1.0 / (1.0 + (-25.0 * (1.02 * v - 0.225)).exp())).sum()
        });
        assert_grad_close(grads.wrt(x).unwrap(), &numeric, 1e-5);
    }

    #[test]
    fn fan_out_accumulates_gradients() {
        // x used twice: loss = sum((x + x)^2) => grad = 8x.
        let x0 = test_input(3, 3);
        let mut g = Graph::without_simulator();
        let x = g.leaf(x0.clone());
        let s = g.add(x, x);
        let zero = g.leaf(Field2D::zeros(3, 3));
        let loss = g.sq_diff_sum(s, zero);
        let grads = g.backward(loss);
        let want = x0.scale(8.0);
        assert_grad_close(grads.wrt(x).unwrap(), &want, 1e-12);
    }

    #[test]
    fn unused_leaf_has_no_gradient() {
        let mut g = Graph::without_simulator();
        let x = g.leaf(Field2D::filled(2, 2, 1.0));
        let unused = g.leaf(Field2D::filled(2, 2, 5.0));
        let zero = g.leaf(Field2D::zeros(2, 2));
        let loss = g.sq_diff_sum(x, zero);
        let grads = g.backward(loss);
        assert!(grads.wrt(unused).is_none());
        assert!(grads.wrt(x).is_some());
    }

    #[test]
    #[should_panic(expected = "scalar")]
    fn backward_from_non_scalar_panics() {
        let mut g = Graph::without_simulator();
        let x = g.leaf(Field2D::filled(2, 2, 1.0));
        let _ = g.backward(x);
    }

    #[test]
    #[should_panic(expected = "without a lithography simulator")]
    fn hopkins_without_simulator_panics() {
        let mut g = Graph::without_simulator();
        let x = g.leaf(Field2D::filled(32, 32, 1.0));
        let _ = g.hopkins(x, false);
    }
}

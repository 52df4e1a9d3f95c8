//! Gradient update rules.
//!
//! The paper uses plain gradient descent (`M' -= lr * G`, Algorithm 1
//! line 15); the A2-ILT baseline it compares against uses Adam. Both are
//! provided so the ablation harness can quantify what the update rule
//! contributes independently of the multi-level structure.

use ilt_field::Field2D;

/// First-order update rule for the mask variable.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum UpdateRule {
    /// Plain gradient descent (the paper's Algorithm 1).
    Sgd,
    /// Heavy-ball momentum: `v = beta v + g; M' -= lr v`.
    Momentum {
        /// Momentum coefficient in `[0, 1)`.
        beta: f64,
    },
    /// Adam with bias correction.
    Adam {
        /// First-moment decay (typical 0.9).
        beta1: f64,
        /// Second-moment decay (typical 0.999).
        beta2: f64,
        /// Numerical floor in the denominator.
        epsilon: f64,
    },
}

impl Default for UpdateRule {
    fn default() -> Self {
        UpdateRule::Sgd
    }
}

impl UpdateRule {
    /// Adam with the literature-standard constants.
    pub const fn adam_default() -> Self {
        UpdateRule::Adam { beta1: 0.9, beta2: 0.999, epsilon: 1e-8 }
    }
}

/// Mutable state carried across iterations of one stage.
///
/// Created fresh per stage (the mask shape changes between scales).
#[derive(Clone, Debug, Default)]
pub struct UpdateState {
    velocity: Option<Field2D>,
    first: Option<Field2D>,
    second: Option<Field2D>,
    step: usize,
}

impl UpdateState {
    /// Fresh state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies one step of `rule` to `m_raw` in place: `M' -= delta`, where
    /// `delta` is the rule's step for the gradient `grad * region`,
    /// advancing the internal state.
    ///
    /// `region` is the 0/1 writable region (Algorithm 1 line 15). Every rule
    /// maps a zero gradient history to a zero delta, so masking the gradient
    /// masks the step. Each pixel goes through the masked gradient, the
    /// rule's delta and the subtraction with the operands and order of the
    /// whole-field form, so `M'` gets the same bits with neither
    /// intermediate field allocated.
    ///
    /// # Panics
    ///
    /// Panics if `grad`, `region` and `m_raw` differ in shape, or the shape
    /// changes between calls.
    pub fn apply(
        &mut self,
        rule: UpdateRule,
        grad: &Field2D,
        region: &Field2D,
        lr: f64,
        m_raw: &mut Field2D,
    ) {
        let shape = grad.shape();
        assert!(region.shape() == shape && m_raw.shape() == shape, "update shapes differ");
        self.step += 1;
        let masked = grad.as_slice().iter().zip(region.as_slice()).map(|(&g, &r)| g * r);
        let pixels = m_raw.as_mut_slice().iter_mut().zip(masked);
        match rule {
            UpdateRule::Sgd => pixels.for_each(|(x, g)| *x -= g * lr),
            UpdateRule::Momentum { beta } => {
                let fresh = self.velocity.is_none();
                for ((x, g), v) in pixels.zip(state_field(&mut self.velocity, shape)) {
                    *v = if fresh { g } else { beta * *v + g };
                    *x -= *v * lr;
                }
            }
            UpdateRule::Adam { beta1, beta2, epsilon } => {
                let fresh = self.first.is_none();
                let bc1 = 1.0 - beta1.powi(self.step as i32);
                let bc2 = 1.0 - beta2.powi(self.step as i32);
                let moments = state_field(&mut self.first, shape)
                    .iter_mut()
                    .zip(state_field(&mut self.second, shape));
                for ((x, g), (m, v)) in pixels.zip(moments) {
                    if fresh {
                        (*m, *v) = (g * (1.0 - beta1), (1.0 - beta2) * g * g);
                    } else {
                        *m = beta1 * *m + (1.0 - beta1) * g;
                        *v = beta2 * *v + (1.0 - beta2) * g * g;
                    }
                    *x -= lr * (*m / bc1) / ((*v / bc2).sqrt() + epsilon);
                }
            }
        }
    }
}

/// The pixels of a state field, created at `shape` on first use.
///
/// # Panics
///
/// Panics if the field exists at another shape.
fn state_field(field: &mut Option<Field2D>, shape: (usize, usize)) -> &mut [f64] {
    let f = field.get_or_insert_with(|| Field2D::zeros(shape.0, shape.1));
    assert_eq!(f.shape(), shape, "gradient shape changed between update steps");
    f.as_mut_slice()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grad(v: f64) -> Field2D {
        Field2D::filled(2, 2, v)
    }

    /// `M'` after `rule` steps `grad` over a zero mask with every pixel
    /// writable, so each returned value is minus the summed deltas.
    fn descend(rule: UpdateRule, grads: &[f64], lr: f64) -> Vec<f64> {
        let (mut st, mut m, region) = (UpdateState::new(), grad(0.0), grad(1.0));
        grads
            .iter()
            .map(|&g| {
                st.apply(rule, &grad(g), &region, lr, &mut m);
                m[(0, 0)]
            })
            .collect()
    }

    #[test]
    fn sgd_is_stateless_scaling() {
        assert_eq!(descend(UpdateRule::Sgd, &[2.0, 2.0], 0.5), [-1.0, -2.0]);
    }

    #[test]
    fn momentum_accumulates() {
        // Deltas 1, 0.5*1 + 1 = 1.5, 0.5*1.5 + 1 = 1.75.
        let m = descend(UpdateRule::Momentum { beta: 0.5 }, &[1.0; 3], 1.0);
        assert_eq!(m, [-1.0, -2.5, -4.25]);
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        // With bias correction, the first Adam step is ~lr * sign(g), and
        // scale-invariant in |g|.
        for g in [0.3, 30.0] {
            let m = descend(UpdateRule::adam_default(), &[g], 0.01);
            assert!((m[0] + 0.01).abs() < 1e-6, "{}", m[0]);
        }
    }

    #[test]
    fn adam_converges_on_a_quadratic() {
        // Minimize f(x) = (x - 3)^2 per pixel.
        let (mut x, region) = (Field2D::filled(2, 2, 0.0), grad(1.0));
        let mut st = UpdateState::new();
        for _ in 0..500 {
            let g = x.map(|v| 2.0 * (v - 3.0));
            st.apply(UpdateRule::adam_default(), &g, &region, 0.05, &mut x);
        }
        for &v in x.as_slice() {
            assert!((v - 3.0).abs() < 0.05, "{v}");
        }
    }

    #[test]
    fn zero_gradient_yields_zero_step_for_sgd_and_momentum() {
        assert_eq!(descend(UpdateRule::Sgd, &[0.0], 1.0), [0.0]);
        assert_eq!(descend(UpdateRule::Momentum { beta: 0.9 }, &[0.0], 1.0), [0.0]);
    }

    #[test]
    fn the_region_masks_every_rule() {
        let region = Field2D::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let momentum = UpdateRule::Momentum { beta: 0.9 };
        for rule in [UpdateRule::Sgd, momentum, UpdateRule::adam_default()] {
            let (mut st, mut m) = (UpdateState::new(), grad(0.25));
            for _ in 0..3 {
                st.apply(rule, &grad(1.0), &region, 0.1, &mut m);
            }
            assert_eq!((m[(0, 1)], m[(1, 0)]), (0.25, 0.25), "{rule:?} moved a frozen pixel");
            assert!(m[(0, 0)] < 0.25 && m[(0, 0)] == m[(1, 1)], "{rule:?}");
        }
    }
}

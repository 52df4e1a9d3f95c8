//! Reverse-mode automatic differentiation for multi-level ILT.
//!
//! The original DAC 2023 implementation rides on PyTorch autograd; this
//! crate is the from-scratch replacement. It is deliberately *not* a general
//! autodiff system: the operator set is exactly the one Algorithm 1 of the
//! paper touches — Hopkins imaging (through the `ilt-optics` adjoint),
//! sigmoid/cosine binarization, the logistic resist, the three pooling /
//! resampling operators, and squared-L2 losses. Each adjoint is hand-derived
//! and checked against central finite differences.
//!
//! # Example: one differentiable ILT step
//!
//! ```
//! use std::sync::Arc;
//! use ilt_autodiff::Graph;
//! use ilt_field::Field2D;
//! use ilt_optics::{LithoSimulator, OpticsConfig};
//!
//! # fn main() -> Result<(), String> {
//! let cfg = OpticsConfig { grid: 64, nm_per_px: 8.0, num_kernels: 3, ..OpticsConfig::default() };
//! let sim = Arc::new(LithoSimulator::new(cfg)?);
//! let target = Field2D::from_fn(64, 64, |r, c| {
//!     if (24..40).contains(&r) && (16..48).contains(&c) { 1.0 } else { 0.0 }
//! });
//!
//! let mut g = Graph::new(sim.clone());
//! let m_raw = g.leaf(target.clone());          // M' initialized to the target
//! let m = g.sigmoid(m_raw, 4.0, 0.5);          // Eq. 11 with the improved T_R
//! let i = g.hopkins(m, false);                 // aerial image
//! let z = g.resist_sigmoid(i, 50.0, 1.0, 0.225); // Eq. 9
//! let t = g.leaf(target);
//! let loss = g.sq_diff_sum(z, t);              // L_l2 of Eq. 5
//! let grads = g.backward(loss);
//! assert!(grads.wrt(m_raw).is_some());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod gradcheck;
mod graph;

pub use gradcheck::{
    assert_gradients_close, assert_gradients_close_at, finite_diff, finite_diff_at,
};
pub use graph::{Gradients, Graph, Var};

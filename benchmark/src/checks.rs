//! Output checks and the quality evaluation the benchmark does itself.

use std::collections::HashMap;
use std::time::Duration;

use ilt_field::Field2D;
use ilt_metrics::{EpeChecker, EvalReport};
use ilt_optics::LithoSimulator;
use ilt_runtime::field_hash;

/// A mask must be `n x n` and binary.
pub fn check_mask(mask: &Field2D, n: usize) -> Result<(), String> {
    if mask.shape() != (n, n) {
        return Err(format!("mask is {:?}, expected {n}x{n}", mask.shape()));
    }
    match mask.as_slice().iter().find(|&&v| v != 0.0 && v != 1.0) {
        Some(v) => Err(format!("mask is not binary: found {v}")),
        None => Ok(()),
    }
}

/// The mask hash seen for each input; the same input must hash the same
/// every time within a run (the pipeline is deterministic).
#[derive(Default)]
pub struct HashBook(HashMap<String, u64>);

impl HashBook {
    pub fn check(&mut self, input: &str, mask: &Field2D) -> Result<(), String> {
        let hash = field_hash(mask);
        match self.0.insert(input.to_string(), hash) {
            Some(before) if before != hash => Err(format!(
                "{input}: mask hash {hash:016x} differs from earlier {before:016x}"
            )),
            _ => Ok(()),
        }
    }
}

/// Quality of one mask, in the paper's table columns.
pub struct Quality {
    pub l2_nm2: f64,
    pub pvband_nm2: f64,
    pub epe: f64,
    pub shots: f64,
    /// L2 of the target used as its own mask: what no optimization gives.
    pub l2_uncorrected_nm2: f64,
}

impl Quality {
    /// Prints `mask` and the bare target at the three corners on `sim` and
    /// evaluates both against `target`.
    pub fn evaluate(sim: &LithoSimulator, target: &Field2D, mask: &Field2D) -> Quality {
        let checker = EpeChecker {
            nm_per_px: sim.config().nm_per_px,
            ..EpeChecker::default()
        };
        let report = |m: &Field2D| {
            let c = sim.print_corners(m);
            EvalReport::evaluate(
                target,
                m,
                &c.nominal,
                &c.inner,
                &c.outer,
                &checker,
                Duration::ZERO,
            )
        };
        let optimized = report(mask);
        Quality {
            l2_nm2: optimized.l2_nm2,
            pvband_nm2: optimized.pvband_nm2,
            epe: optimized.epe_violations() as f64,
            shots: optimized.shots as f64,
            l2_uncorrected_nm2: report(target).l2_nm2,
        }
    }

    /// An optimized mask must print closer to the target than the target
    /// itself does.
    pub fn check(&self) -> Result<(), String> {
        if self.l2_nm2 < self.l2_uncorrected_nm2 {
            Ok(())
        } else {
            Err(format!(
                "optimized mask L2 {} nm2 is not below the uncorrected target's {} nm2",
                self.l2_nm2, self.l2_uncorrected_nm2
            ))
        }
    }
}

//! The workload registry: every benchmark the barometer knows, as data.
//!
//! A [`Workload`] is one named measurement; [`registry`] returns the full
//! list and [`select`] filters it by name glob. A family is a name prefix
//! (`fft_*`, `sim_*`, `core_*`), so `ilt bench run 'fft_*'` measures one.

use crate::measure::{MeasureConfig, Sample};
use crate::workloads;

/// One benchmark in the registry.
pub struct Workload {
    /// Unique registry name, prefixed by its family (`fft_`, `sim_`,
    /// `core_`).
    pub name: &'static str,
    /// One-line description for `ilt bench list`.
    pub notes: &'static str,
    /// Runs the workload: builds fixtures (sized down in smoke mode),
    /// measures the hot operation, self-checks where a reference path
    /// exists, and returns the sample.
    pub run: fn(&MeasureConfig) -> Result<Sample, String>,
}

/// Every workload the barometer ships: one or more per compute layer, from
/// the FFT kernels up to the optimizer step. The tiled runtime and the
/// serving path are measured end to end by `benchmark/`'s `batch_tiles`
/// and `serve_small`, not here.
pub fn registry() -> Vec<Workload> {
    vec![
        Workload {
            name: "fft_pruned_inverse",
            notes: "one SOCS sweep of the pruned padded inverse (inverse_padded_with): 10 kernel spectra, P=57 -> Q=128",
            run: workloads::fft::pruned_inverse,
        },
        Workload {
            name: "fft_pruned_real_inverse",
            notes: "pruned real inverse (inverse_padded_real_with): the 113^2 image band -> N=1024",
            run: workloads::fft::pruned_real_inverse,
        },
        Workload {
            name: "fft_pruned_forward",
            notes: "pruned real forward (forward_real_cropped_with): N=1024 -> the 113^2 band, crop fused into the column pass",
            run: workloads::fft::pruned_forward,
        },
        Workload {
            name: "sim_aerial",
            notes: "one aerial image (SOCS sum over 10 kernels) of ICCAD case 1 at grid 512",
            run: workloads::simulator::aerial,
        },
        Workload {
            name: "core_step_lo",
            notes: "one low-res optimizer step (MultiLevelIlt::step: pool, sigmoid, LossWeights::eq5, their adjoints) of ICCAD case 1 at grid 1024, s=4, 10 kernels",
            run: workloads::optimizer::step_lo,
        },
        Workload {
            name: "core_step_hi",
            notes: "one high-res optimizer step at the same point: mask and gradient at N/s, both corners simulated at N",
            run: workloads::optimizer::step_hi,
        },
    ]
}

/// Matches `name` against a glob with `*` wildcards (no other metachars —
/// registry names are flat identifiers).
pub fn glob_match(pattern: &str, name: &str) -> bool {
    fn rec(p: &[u8], n: &[u8]) -> bool {
        match (p.first(), n.first()) {
            (None, None) => true,
            (Some(b'*'), _) => rec(&p[1..], n) || (!n.is_empty() && rec(p, &n[1..])),
            (Some(pc), Some(nc)) if pc == nc => rec(&p[1..], &n[1..]),
            _ => false,
        }
    }
    rec(pattern.as_bytes(), name.as_bytes())
}

/// Does `name` match any of `globs`? No globs select every name.
pub(crate) fn selected(globs: &[String], name: &str) -> bool {
    globs.is_empty() || globs.iter().any(|g| glob_match(g, name))
}

/// The registry's workloads whose names match any of `globs` (all of them
/// for no globs).
pub fn select(globs: &[String]) -> Vec<Workload> {
    registry().into_iter().filter(|w| selected(globs, w.name)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn globs(patterns: &[&str]) -> Vec<String> {
        patterns.iter().map(|p| p.to_string()).collect()
    }

    #[test]
    fn registry_names_are_unique_and_cover_every_layer() {
        let all = registry();
        let mut names: Vec<_> = all.iter().map(|w| w.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate workload names");
        for family in ["fft_", "sim_", "core_"] {
            assert!(
                all.iter().any(|w| w.name.starts_with(family)),
                "no workload named {family}*"
            );
        }
    }

    #[test]
    fn glob_matching() {
        assert!(glob_match("fft_*", "fft_pruned_inverse"));
        assert!(glob_match("*", "anything"));
        assert!(glob_match("sim_aerial", "sim_aerial"));
        assert!(glob_match("*_inverse", "fft_pruned_inverse"));
        assert!(!glob_match("fft_*", "sim_aerial"));
        assert!(!glob_match("fft", "fft_pruned_forward"));
        assert!(!glob_match("", "x"));
        assert!(glob_match("**", "x"));
    }

    #[test]
    fn selection_filters_by_name_globs() {
        assert_eq!(select(&globs(&["fft_*"])).len(), 3);
        assert_eq!(select(&globs(&["sim_*"])).len(), 1);
        let forward: Vec<_> = select(&globs(&["*_forward"])).iter().map(|w| w.name).collect();
        assert_eq!(forward, ["fft_pruned_forward"]);
        // Globs add up: a workload matching any of them is selected once.
        let union: Vec<_> =
            select(&globs(&["fft_*", "*_forward", "sim_*"])).iter().map(|w| w.name).collect();
        assert_eq!(
            union,
            ["fft_pruned_inverse", "fft_pruned_real_inverse", "fft_pruned_forward", "sim_aerial"]
        );
        assert_eq!(select(&[]).len(), registry().len());
    }
}

//! The workload registry: every benchmark the barometer knows, as data.
//!
//! A [`Workload`] is one named, tagged measurement with its own regression
//! threshold; [`registry`] returns the full list and [`select`] filters it
//! by tag and name glob — the shapes `ilt bench run --tag fft` and
//! `ilt bench run --name 'sim_*'` need.

use crate::measure::{MeasureConfig, Sample};
use crate::result::PerfError;
use crate::workloads;

/// One benchmark in the registry.
pub struct Workload {
    /// Unique registry name; also names the baseline file
    /// (`BENCH_<name>.json`).
    pub name: &'static str,
    /// Family tags for `--tag` selection (`fft`, `simulator`, …).
    pub tags: &'static [&'static str],
    /// Allowed fractional slowdown vs. the checked-in baseline before
    /// `diff` reports a regression (0.1 = fail past 1.1x), set from the
    /// workload's measured spread on the reference box:
    /// `max(0.05, 4 x MAD / median)`, rounded up.
    pub threshold: f64,
    /// One-line description for `ilt bench list`.
    pub notes: &'static str,
    /// Runs the workload: builds fixtures (sized down in smoke mode),
    /// measures the hot operation, self-checks where a reference path
    /// exists, and returns the sample.
    pub run: fn(&MeasureConfig) -> Result<Sample, PerfError>,
}

/// Every workload the barometer ships: one or more per compute layer, from
/// the FFT kernels up to the tiled runtime. The serving path is measured
/// end to end by `benchmark/`'s `serve_small`, not here.
pub fn registry() -> Vec<Workload> {
    vec![
        Workload {
            name: "fft_pruned_inverse",
            tags: &["fft"],
            threshold: 0.09,
            notes: "one SOCS sweep of the pruned padded inverse (inverse_padded_with): 10 kernel spectra, P=57 -> Q=128",
            run: workloads::fft::pruned_inverse,
        },
        Workload {
            name: "fft_pruned_real_inverse",
            tags: &["fft"],
            threshold: 0.15,
            notes: "pruned real inverse (inverse_padded_real_with): the 113^2 image band -> N=1024",
            run: workloads::fft::pruned_real_inverse,
        },
        Workload {
            name: "fft_pruned_forward",
            tags: &["fft"],
            threshold: 0.14,
            notes: "pruned real forward (forward_real_cropped_with): N=1024 -> the 113^2 band, crop fused into the column pass",
            run: workloads::fft::pruned_forward,
        },
        Workload {
            name: "sim_aerial",
            tags: &["simulator"],
            threshold: 0.05,
            notes: "one aerial image (SOCS sum over 10 kernels) of ICCAD case 1 at grid 512",
            run: workloads::simulator::aerial,
        },
        Workload {
            name: "core_step_lo",
            tags: &["core"],
            threshold: 0.11,
            notes: "one low-res optimizer step (MultiLevelIlt::step: tape, fused Eq. 5 operator, backward) of ICCAD case 1 at grid 1024, s=4, 10 kernels",
            run: workloads::optimizer::step_lo,
        },
        Workload {
            name: "core_step_hi",
            tags: &["core"],
            threshold: 0.15,
            notes: "one high-res optimizer step at the same point: mask and gradient at N/s, both corners simulated at N",
            run: workloads::optimizer::step_hi,
        },
        Workload {
            name: "runtime_tile_pipeline",
            tags: &["runtime"],
            threshold: 0.12,
            notes: "tiled batch end-to-end via run_batch: 256 px via clip, 9 tiles, threads = 2",
            run: workloads::runtime::tile_pipeline,
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

/// A tag/name filter over the registry.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Selection {
    /// Keep workloads carrying any of these tags (empty = all tags).
    pub tags: Vec<String>,
    /// Keep workloads whose name matches any of these globs (empty = all).
    pub names: Vec<String>,
}

impl Selection {
    /// The match-everything selection.
    pub fn all() -> Selection {
        Selection::default()
    }

    /// Does `w` pass both filters?
    pub fn matches(&self, w: &Workload) -> bool {
        self.matches_parts(w.name, w.tags)
    }

    /// [`Selection::matches`] on raw name/tags (for results whose workload
    /// is no longer in the registry).
    pub fn matches_parts(&self, name: &str, tags: &[&str]) -> bool {
        let tag_ok = self.tags.is_empty() || tags.iter().any(|t| self.tags.iter().any(|q| q == t));
        let name_ok =
            self.names.is_empty() || self.names.iter().any(|g| glob_match(g, name));
        tag_ok && name_ok
    }
}

/// Filters the full registry through `selection`.
pub fn select(selection: &Selection) -> Vec<Workload> {
    registry().into_iter().filter(|w| selection.matches(w)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_cover_every_layer() {
        let all = registry();
        let mut names: Vec<_> = all.iter().map(|w| w.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate workload names");
        for family in ["fft", "simulator", "core", "runtime"] {
            assert!(
                all.iter().any(|w| w.tags.contains(&family)),
                "no workload tagged {family}"
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
    fn selection_filters_by_tag_and_name() {
        let fft = select(&Selection { tags: vec!["fft".into()], names: vec![] });
        assert_eq!(fft.len(), 3);
        let one = select(&Selection { tags: vec![], names: vec!["sim_*".into()] });
        assert_eq!(one.len(), 1);
        let both = select(&Selection {
            tags: vec!["fft".into()],
            names: vec!["*_forward".into()],
        });
        let names: Vec<_> = both.iter().map(|w| w.name).collect();
        assert_eq!(names, ["fft_pruned_forward"]);
        assert_eq!(select(&Selection::all()).len(), registry().len());
    }
}

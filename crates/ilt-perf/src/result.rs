//! The `ilt-bench/v2` result schema: one JSON document per workload,
//! written by hand and read back through the workspace's shared
//! `ilt_runtime::json` codec (hermetic — no serde), with load errors that
//! name the file and the cause, so a torn baseline, a schema bump and a
//! genuine regression read differently.

use std::path::{Path, PathBuf};

use ilt_runtime::json::{self, Value};
use ilt_runtime::{json_escape, json_f64};

use crate::measure::{EnvStamp, MeasureConfig, Sample};
use crate::registry::Workload;

/// Schema identifier written to and required from every v2 result file.
pub const SCHEMA_V2: &str = "ilt-bench/v2";

/// One workload's measurement in the `ilt-bench/v2` schema.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchResult {
    /// Registry name of the workload.
    pub workload: String,
    /// Allowed fractional slowdown vs. this result when it serves as the
    /// baseline (0.5 = fail past 1.5x).
    pub threshold: f64,
    /// Timed reps behind the median.
    pub reps: usize,
    /// Median wall time per operation, microseconds.
    pub median_us: f64,
    /// Median absolute deviation of the rep times, microseconds.
    pub mad_us: f64,
    /// True when measured in smoke mode (tiny fixtures, 1 rep).
    pub smoke: bool,
    /// Git revision of the tree that produced the number.
    pub git_rev: String,
    /// Hardware threads on the measuring machine.
    pub threads: usize,
    /// FFT kernel active during the measurement (`avx2` or `scalar`).
    pub simd: String,
    /// Workload-specific scalars (grid sizes, tile counts, speedups…).
    pub extra: Vec<(String, f64)>,
}

impl BenchResult {
    /// Assembles a result from a workload's sample and the environment.
    pub fn new(w: &Workload, sample: &Sample, cfg: &MeasureConfig, env: &EnvStamp) -> BenchResult {
        BenchResult {
            workload: w.name.to_string(),
            threshold: w.threshold,
            reps: sample.reps,
            median_us: sample.median_us,
            mad_us: sample.mad_us,
            smoke: cfg.smoke,
            git_rev: env.git_rev.clone(),
            threads: env.threads,
            simd: env.simd.clone(),
            extra: sample.extra.clone(),
        }
    }

    /// Canonical file name for a workload's result: `BENCH_<name>.json`.
    pub fn file_name(workload: &str) -> String {
        format!("BENCH_{workload}.json")
    }

    /// Serializes to the v2 JSON document (trailing newline included).
    pub fn to_json(&self) -> String {
        let mut extra = String::new();
        for (i, (k, v)) in self.extra.iter().enumerate() {
            if i > 0 {
                extra.push_str(", ");
            }
            extra.push_str(&format!("\"{}\": {}", json_escape(k), json_f64(*v)));
        }
        format!(
            "{{\n  \"schema\": \"{SCHEMA_V2}\",\n  \"workload\": \"{}\",\n  \"threshold\": {},\n  \
             \"reps\": {},\n  \"median_us\": {},\n  \"mad_us\": {},\n  \"smoke\": {},\n  \
             \"git_rev\": \"{}\",\n  \"threads\": {},\n  \"simd\": \"{}\",\n  \
             \"extra\": {{{extra}}}\n}}\n",
            json_escape(&self.workload),
            json_f64(self.threshold),
            self.reps,
            json_f64(self.median_us),
            json_f64(self.mad_us),
            self.smoke,
            json_escape(&self.git_rev),
            self.threads,
            json_escape(&self.simd),
        )
    }

    /// Parses a v2 JSON document. `path` is only used to label errors.
    ///
    /// # Errors
    ///
    /// `<path>: malformed bench result: ..` for a document that does not
    /// parse or lacks a field, `<path>: schema ".." is not "ilt-bench/v2"
    /// ..` for another schema.
    pub fn from_json(text: &str, path: &Path) -> Result<BenchResult, String> {
        let malformed =
            |detail: String| format!("{}: malformed bench result: {detail}", path.display());
        let doc = json::parse(text).map_err(malformed)?;
        let schema = doc.field_str("schema").map_err(malformed)?;
        if schema != SCHEMA_V2 {
            return Err(format!(
                "{}: schema {schema:?} is not {SCHEMA_V2:?} — regenerate with `ilt bench run`",
                path.display()
            ));
        }
        Self::from_doc(&doc).map_err(malformed)
    }

    fn from_doc(doc: &Value) -> Result<BenchResult, String> {
        let text = |key: &str| doc.field_str(key).map(str::to_string);
        let extra = match doc.get("extra") {
            Some(Value::Object(pairs)) => pairs
                .iter()
                .map(|(k, v)| {
                    let n = v.as_f64().ok_or_else(|| format!("extra field {k:?} is not a number"));
                    n.map(|n| (k.clone(), n))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("field \"extra\" is missing or not an object".into()),
        };
        Ok(BenchResult {
            workload: text("workload")?,
            threshold: doc.field_f64("threshold")?,
            reps: doc.field_usize("reps")?,
            median_us: doc.field_f64("median_us")?,
            mad_us: doc.field_f64("mad_us")?,
            smoke: doc
                .get("smoke")
                .and_then(Value::as_bool)
                .ok_or("field \"smoke\" is missing or not a boolean")?,
            git_rev: text("git_rev")?,
            threads: doc.field_usize("threads")?,
            simd: text("simd")?,
            extra,
        })
    }

    /// Loads `BENCH_<workload>.json` content from `path`.
    pub fn load(path: &Path) -> Result<BenchResult, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        BenchResult::from_json(&text, path)
    }

    /// Writes this result to `dir/BENCH_<workload>.json`.
    pub fn write(&self, dir: &Path) -> Result<PathBuf, String> {
        let path = dir.join(BenchResult::file_name(&self.workload));
        std::fs::write(&path, self.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result() -> BenchResult {
        BenchResult {
            workload: "fft_pruned_inverse".into(),
            threshold: 0.5,
            reps: 5,
            median_us: 11430.926,
            mad_us: 52.0,
            smoke: false,
            git_rev: "abc123def456".into(),
            threads: 8,
            simd: "avx2".into(),
            extra: vec![("n".into(), 1024.0), ("p".into(), 25.0)],
        }
    }

    #[test]
    fn v2_round_trips() {
        let r = sample_result();
        let json = r.to_json();
        let back = BenchResult::from_json(&json, Path::new("x.json")).expect("parse");
        assert_eq!(back, r);
    }

    #[test]
    fn v1_schema_is_surfaced_not_silently_passed() {
        let v1 = r#"{"schema": "ilt-bench-fft/v1", "p": 25, "reps": 5, "extra": {}}"#;
        let err = BenchResult::from_json(v1, Path::new("BENCH_fft.json")).expect_err("v1");
        assert!(err.starts_with("BENCH_fft.json: schema \"ilt-bench-fft/v1\" is not"), "{err}");
    }

    #[test]
    fn unparseable_and_mistyped_documents_are_typed_malformed() {
        // What the parser itself rejects is pinned in ilt_runtime::json's
        // table; here: every such failure, and every schema-level one,
        // surfaces as malformed (not a panic, not a silent pass).
        let json = sample_result().to_json();
        let torn = &json[..json.len() / 2];
        let mistyped = json.replace("\"reps\": 5", "\"reps\": 5.5");
        for bad in [torn, "", "[1,2]", "{\"a\": 1} trailing", &mistyped] {
            let err = BenchResult::from_json(bad, Path::new("bad.json")).expect_err(bad);
            assert!(err.starts_with("bad.json: malformed bench result: "), "{bad:?}: {err}");
        }
    }
}

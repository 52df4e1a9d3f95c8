//! The one description of an ILT job, whatever route it arrives by.
//!
//! [`JobParams`] is decoded and validated by exactly one function,
//! [`JobParams::from_pairs`], from `key=value` pairs plus an optional inline
//! PGM: the `ilt` command line hands it its job flags as the query keys
//! they are, `POST /v1/jobs` its query string and body
//! ([`JobParams::from_request`]), the state log and the shard wire the
//! string [`JobParams::to_query`] wrote ([`JobParams::from_saved`]). Exactly
//! one function, [`JobParams::plan`], turns a description into the batch
//! engine's [`BatchCase`]/[`BatchConfig`], so every process derives the same
//! inputs and a mask is byte-equal whichever route its job took.

use ilt_core::{schedules, IltConfig, Stage};
use ilt_field::{parse_pgm, pgm_bytes, Field2D};
use ilt_layouts::{m1_case, via_pattern};
use ilt_optics::OpticsConfig;
use ilt_runtime::{planned_jobs, BatchCase, BatchConfig, FaultPlan};

use crate::transport::{first, parse_query, Request};

/// Where a job's target geometry comes from.
#[derive(Clone, Debug)]
pub enum JobSource {
    /// A built-in benchmark case (`case1`..`case20`).
    Case(usize),
    /// A generated via pattern with the given seed.
    Via(u64),
    /// An inline PGM raster submitted in the request body.
    Inline(Field2D),
}

/// Per-request execution policy bounds, owned by the server configuration.
#[derive(Clone, Copy, Debug)]
pub struct ExecPolicy {
    /// Default per-attempt timeout, seconds; 0 = none.
    pub default_timeout_s: f64,
    /// Default retry budget per tile job.
    pub default_retries: u32,
    /// Hard cap on per-job worker threads a request may ask for.
    pub max_threads_per_job: usize,
    /// Accept the `inject=` fault-injection parameter (chaos testing only;
    /// keep off in production).
    pub allow_inject: bool,
}

impl Default for ExecPolicy {
    fn default() -> Self {
        Self {
            default_timeout_s: 0.0,
            default_retries: 1,
            max_threads_per_job: 4,
            allow_inject: false,
        }
    }
}

/// A fully validated job specification. Every default is the one
/// [`JobParams::from_pairs`] applies to a key that was not sent; no caller
/// keeps a second copy.
#[derive(Clone, Debug)]
pub struct JobParams {
    /// Target geometry.
    pub source: JobSource,
    /// Display / journal name.
    pub name: String,
    /// Rasterization grid for generated layouts.
    pub grid: usize,
    /// Physical clip width for inline targets, nm.
    pub clip_nm: f64,
    /// SOCS kernel count.
    pub kernels: usize,
    /// Tile window size.
    pub tile: usize,
    /// Tile guard band.
    pub halo: usize,
    /// Schedule name (`fast`, `exact`, `via`).
    pub schedule: String,
    /// Optional per-stage iteration override.
    pub iters: Option<usize>,
    /// Coarsest admissible effective pitch, nm.
    pub max_eff_nm: f64,
    /// Worker threads inside this job's pool (clamped by [`ExecPolicy`]).
    pub threads: usize,
    /// Per-attempt timeout, seconds; 0 = none.
    pub timeout_s: f64,
    /// Retry budget per tile.
    pub retries: u32,
    /// Evaluate the stitched mask.
    pub evaluate: bool,
    /// Deterministic fault plan (empty unless the request passed `inject=`
    /// and the policy allows it).
    pub faults: FaultPlan,
}

/// Percent-encodes a query *value* for the state log: the HTTP layer hands
/// the store decoded strings, so free-text values (the job name) must be
/// re-escaped before they re-enter query syntax.
pub fn query_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// True when `s` may travel unescaped into metric labels, JSON strings and
/// file names: 1..=`max_len` bytes of `[A-Za-z0-9._-]` plus `extra`.
pub fn is_label(s: &str, max_len: usize, extra: &[u8]) -> bool {
    (1..=max_len).contains(&s.len())
        && s.bytes().all(|b| b.is_ascii_alphanumeric() || b"._-".contains(&b) || extra.contains(&b))
}

fn num<T: std::str::FromStr>(
    pairs: &[(String, String)],
    key: &str,
    default: T,
) -> Result<T, String> {
    match first(pairs, key) {
        None => Ok(default),
        Some(raw) => raw.parse().map_err(|_| format!("bad {key}={raw:?}")),
    }
}

/// [`num`] for the `f64` keys: `inf` and `NaN` parse, and mean nothing as
/// a pitch, a width or a duration.
fn finite(pairs: &[(String, String)], key: &str, default: f64) -> Result<f64, String> {
    let value = num(pairs, key, default)?;
    if value.is_finite() {
        Ok(value)
    } else {
        Err(format!("bad {key}={:?}", first(pairs, key).unwrap_or_default()))
    }
}

impl JobParams {
    /// Decodes and validates one job: `pairs` are its `key=value` settings
    /// (first occurrence of a key wins, unknown keys are ignored), `body`
    /// an inline PGM target or empty. Keys: exactly one source — `case`
    /// (`N` or `caseN`), `via` (`SEED` or `viaSEED`) or a non-empty `body`
    /// — then `name grid clip_nm kernels tile halo seam schedule iters
    /// max_eff_nm threads timeout_s retries eval inject`, where `seam`
    /// accepts only `crop`.
    ///
    /// # Errors
    ///
    /// A message describing the first invalid setting; the HTTP handler
    /// maps it to `400 Bad Request`, the command line prints it.
    pub fn from_pairs(
        pairs: &[(String, String)],
        body: &[u8],
        policy: &ExecPolicy,
    ) -> Result<JobParams, String> {
        let get = |key| first(pairs, key);
        let source = match (get("case"), get("via"), body.is_empty()) {
            (Some(c), None, true) => {
                let id: usize = c
                    .strip_prefix("case")
                    .unwrap_or(c)
                    .parse()
                    .map_err(|_| format!("bad case={c:?}"))?;
                m1_case(id)?; // the id range lives beside the generators
                JobSource::Case(id)
            }
            (None, Some(v), true) => {
                let seed: u64 = v
                    .strip_prefix("via")
                    .unwrap_or(v)
                    .parse()
                    .map_err(|_| format!("bad via={v:?}"))?;
                JobSource::Via(seed)
            }
            (None, None, false) => {
                let img = parse_pgm(body).map_err(|e| format!("bad PGM body: {e}"))?;
                let (rows, cols) = img.shape();
                if rows != cols || !rows.is_power_of_two() {
                    return Err(format!(
                        "inline target must be square power-of-two, got {rows}x{cols}"
                    ));
                }
                JobSource::Inline(img.threshold(0.5))
            }
            (None, None, true) => {
                return Err("give one of case=N, via=SEED, or an inline PGM target".into())
            }
            _ => return Err("give exactly one of case, via, or an inline PGM target".into()),
        };

        let name = match get("name") {
            Some(n) if !n.is_empty() => n.to_string(),
            _ => match &source {
                JobSource::Case(id) => format!("case{id}"),
                JobSource::Via(seed) => format!("via{seed}"),
                JobSource::Inline(_) => "inline".to_string(),
            },
        };

        let grid: usize = num(pairs, "grid", 512)?;
        if !grid.is_power_of_two() || !(32..=4096).contains(&grid) {
            return Err(format!("grid must be a power of two in 32..=4096, got {grid}"));
        }
        let clip_nm = finite(pairs, "clip_nm", 2048.0)?;
        if !(clip_nm > 0.0) {
            return Err(format!("clip_nm must be positive, got {clip_nm}"));
        }
        let kernels: usize = num(pairs, "kernels", 10)?;
        if !(1..=50).contains(&kernels) {
            return Err(format!("kernels must be in 1..=50, got {kernels}"));
        }
        // Tiles are stitched by crop, the one seam policy; the key stays so
        // saved queries and the shard wire keep their bytes.
        if let Some(other) = get("seam").filter(|&s| s != "crop") {
            return Err(format!("bad seam={other:?} (only crop)"));
        }
        let schedule = get("schedule").unwrap_or("fast").to_string();
        if !matches!(schedule.as_str(), "fast" | "exact" | "via") {
            return Err(format!("unknown schedule {schedule:?} (fast|exact|via)"));
        }
        let iters = match get("iters") {
            None => None,
            Some(raw) => match raw.parse::<usize>() {
                Ok(n) if (1..=10_000).contains(&n) => Some(n),
                _ => return Err(format!("iters must be in 1..=10000, got {raw:?}")),
            },
        };
        let evaluate = match get("eval").unwrap_or("1") {
            "1" | "true" => true,
            "0" | "false" => false,
            other => return Err(format!("bad eval={other:?} (0 or 1)")),
        };
        // `plan()` makes a `Duration` of a positive `timeout_s`; 1e300 is not one.
        let timeout_s = finite(pairs, "timeout_s", policy.default_timeout_s)?;
        if std::time::Duration::try_from_secs_f64(timeout_s.max(0.0)).is_err() {
            return Err(format!("bad timeout_s={:?}", get("timeout_s").unwrap_or_default()));
        }
        let faults = match get("inject") {
            None => FaultPlan::none(),
            Some(_) if !policy.allow_inject => {
                return Err("fault injection is disabled (start the server with --allow-inject)"
                    .into())
            }
            Some(spec) => FaultPlan::parse(spec).map_err(|e| format!("bad inject: {e}"))?,
        };

        Ok(JobParams {
            source,
            name,
            grid,
            clip_nm,
            kernels,
            tile: num(pairs, "tile", 512)?,
            halo: num(pairs, "halo", 64)?,
            schedule,
            iters,
            max_eff_nm: finite(pairs, "max_eff_nm", 8.0)?,
            threads: num(pairs, "threads", 1usize)?
                .clamp(1, policy.max_threads_per_job.max(1)),
            timeout_s,
            retries: num(pairs, "retries", policy.default_retries)?.min(10),
            evaluate,
            faults,
        })
    }

    /// [`JobParams::from_pairs`] on a submission's query parameters and
    /// body.
    ///
    /// # Errors
    ///
    /// Same messages as [`JobParams::from_pairs`].
    pub fn from_request(req: &Request, policy: &ExecPolicy) -> Result<JobParams, String> {
        JobParams::from_pairs(&req.query, &req.body, policy)
    }

    /// Serializes the parameters back into the query string
    /// [`JobParams::from_saved`] parses — the persistence format of the
    /// state log. Inline targets are carried separately (as a PGM file).
    pub fn to_query(&self) -> String {
        self.query(true)
    }

    /// What a coordinator puts on the wire for this job, `(query, body)`:
    /// [`JobParams::to_query`] without `inject=` — faults stay local to a
    /// replica, and a worker started with its own `--inject` plan applies
    /// that one — and the target as a PGM body only when it is inline
    /// (`case=` / `via=` sources are re-resolved by the worker).
    pub fn dispatch(&self) -> (String, Vec<u8>) {
        let body = match &self.source {
            JobSource::Inline(img) => pgm_bytes(img, 0.0, 1.0),
            _ => Vec::new(),
        };
        (self.query(false), body)
    }

    fn query(&self, with_faults: bool) -> String {
        let mut q = String::new();
        match &self.source {
            JobSource::Case(id) => q.push_str(&format!("case={id}")),
            JobSource::Via(seed) => q.push_str(&format!("via={seed}")),
            JobSource::Inline(_) => {}
        }
        let mut push = |kv: String| {
            if !q.is_empty() {
                q.push('&');
            }
            q.push_str(&kv);
        };
        push(format!("name={}", query_encode(&self.name)));
        push(format!("grid={}", self.grid));
        push(format!("clip_nm={}", self.clip_nm));
        push(format!("kernels={}", self.kernels));
        push(format!("tile={}", self.tile));
        push(format!("halo={}", self.halo));
        push("seam=crop".into());
        push(format!("schedule={}", self.schedule));
        if let Some(n) = self.iters {
            push(format!("iters={n}"));
        }
        push(format!("max_eff_nm={}", self.max_eff_nm));
        push(format!("threads={}", self.threads));
        push(format!("timeout_s={}", self.timeout_s));
        push(format!("retries={}", self.retries));
        push(format!("eval={}", if self.evaluate { 1 } else { 0 }));
        if with_faults && !self.faults.is_empty() {
            push(format!("inject={}", self.faults));
        }
        q
    }

    /// [`JobParams::from_pairs`] on a string [`JobParams::to_query`] wrote
    /// (plus the saved target raster for inline jobs).
    ///
    /// # Errors
    ///
    /// Same messages as [`JobParams::from_pairs`], or the query codec's for
    /// a malformed `%`-escape.
    pub fn from_saved(
        query: &str,
        body: Vec<u8>,
        policy: &ExecPolicy,
    ) -> Result<JobParams, String> {
        let pairs = parse_query(query)?;
        // Recovery must replay faults even on a locked-down restart; the
        // original submission already passed the gate.
        let relaxed = ExecPolicy { allow_inject: true, ..*policy };
        JobParams::from_pairs(&pairs, &body, &relaxed)
    }

    /// The one place a description becomes batch-engine inputs: rasterizes
    /// the target, looks the schedule up, fills the [`BatchConfig`] (optics
    /// template, `IltConfig`, tiling, retry policy, fault plan) and checks
    /// that the tile geometry can be planned. What is not part of a job
    /// (`degrade`, `checkpoint`, cancel token, progress counter) keeps its
    /// default for the caller to set.
    ///
    /// # Errors
    ///
    /// What [`planned_jobs`] rejects: a tile size that is not a power of
    /// two, a halo that leaves no core.
    pub fn plan(&self) -> Result<(BatchCase, BatchConfig), String> {
        let (target, nm_per_px) = match &self.source {
            JobSource::Case(id) => {
                let layout = m1_case(*id)?;
                (layout.rasterize(self.grid), layout.nm_per_px(self.grid))
            }
            JobSource::Via(seed) => {
                let layout = via_pattern(*seed);
                (layout.rasterize(self.grid), layout.nm_per_px(self.grid))
            }
            JobSource::Inline(img) => {
                let n = img.shape().0;
                (img.clone(), self.clip_nm / n as f64)
            }
        };
        let case = BatchCase { name: self.name.clone(), target, nm_per_px };
        let mut schedule: Vec<Stage> = match self.schedule.as_str() {
            "exact" => schedules::our_exact(),
            "via" => schedules::via_recipe(),
            _ => schedules::our_fast(),
        };
        if let Some(n) = self.iters {
            for stage in &mut schedule {
                stage.iterations = n;
            }
        }
        let config = BatchConfig {
            threads: self.threads,
            tile: self.tile,
            halo: self.halo,
            optics: OpticsConfig { num_kernels: self.kernels, ..OpticsConfig::default() },
            ilt: IltConfig { early_exit_window: Some(15), ..IltConfig::default() },
            schedule,
            max_eff_nm: self.max_eff_nm,
            timeout: (self.timeout_s > 0.0)
                .then(|| std::time::Duration::from_secs_f64(self.timeout_s)),
            max_retries: self.retries,
            evaluate_stitched: self.evaluate,
            faults: self.faults.clone(),
            ..BatchConfig::default()
        };
        planned_jobs(&case, &config)?;
        Ok((case, config))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `to_query -> from_saved -> to_query` is the identity, whatever the
    /// free-text name holds: `from_saved` reads through the transport's one
    /// codec, so `query_encode` has to be its exact inverse.
    #[test]
    fn saved_queries_round_trip_names_with_metacharacters() {
        let policy = ExecPolicy::default();
        let base = JobParams::from_saved("via=3&grid=64&seam=crop&iters=2", Vec::new(), &policy)
            .expect("base decodes");
        for name in ["a+b", "100%", "50%2", "k=v&x=y", "two words", " ", "wörld-✓", "%zz+%41"] {
            let named = JobParams { name: name.into(), ..base.clone() };
            let saved = named.to_query();
            let back = JobParams::from_saved(&saved, Vec::new(), &policy).expect(name);
            assert_eq!(back.name, name);
            assert_eq!(back.to_query(), saved, "{name:?}");
        }
        // The one codec is strict: a damaged escape is an error, where the
        // lenient decoder this replaced passed it through.
        let err = JobParams::from_saved("via=3&name=bad%2", Vec::new(), &policy).unwrap_err();
        assert!(err.contains("truncated %-escape"), "{err}");
    }

    #[test]
    fn dispatch_drops_inject_and_carries_only_inline_targets() {
        let open = ExecPolicy { allow_inject: true, ..ExecPolicy::default() };
        let via = JobParams::from_saved("via=3&grid=64&inject=panic@0:1", Vec::new(), &open).unwrap();
        assert!(via.to_query().ends_with("&eval=1&inject=panic@0:1"));
        let (query, body) = via.dispatch();
        assert_eq!(format!("{query}&inject=panic@0:1"), via.to_query());
        assert!(body.is_empty(), "named sources are re-resolved by the worker");

        let img = Field2D::from_fn(32, 32, |r, _| f64::from(u8::from(r < 16)));
        let pgm = pgm_bytes(&img, 0.0, 1.0);
        let inline = JobParams::from_saved("clip_nm=256&inject=crash@0", pgm.clone(), &open).unwrap();
        let (query, body) = inline.dispatch();
        assert!(!query.contains("inject"), "{query}");
        assert!(body == pgm, "the inline raster travels as the PGM it arrived as");
    }

    /// `inf` and `NaN` parse as `f64`; none is a width, a pitch or a
    /// duration, and `plan()` used to panic in `Duration::from_secs_f64` on
    /// the connection thread.
    #[test]
    fn non_finite_and_unrepresentable_numbers_are_refused_at_the_door() {
        let policy = ExecPolicy::default();
        for (key, value) in [
            ("timeout_s", "inf"),
            ("timeout_s", "1e300"),
            ("timeout_s", "NaN"),
            ("clip_nm", "inf"),
            ("max_eff_nm", "NaN"),
        ] {
            let query = format!("via=3&grid=64&{key}={value}");
            let err = JobParams::from_saved(&query, Vec::new(), &policy).unwrap_err();
            assert_eq!(err, format!("bad {key}={value:?}"));
        }
        // Anything a `Duration` holds still plans; zero and negative mean none.
        for ok in ["1e19", "-1", "0", "2.5"] {
            let query = format!("via=3&grid=64&timeout_s={ok}");
            JobParams::from_saved(&query, Vec::new(), &policy).expect(ok).plan().expect(ok);
        }
    }

    /// The fingerprint of one description, measured at commit 676f030: what
    /// a coordinator and its workers compare on every shard, and what a WAL
    /// header written by an older binary holds.
    #[test]
    fn a_description_keeps_the_fingerprint_it_had() {
        let params = JobParams::from_saved("case=1&grid=128&tile=64&halo=8", Vec::new(), &ExecPolicy::default());
        let (case, config) = params.unwrap().plan().unwrap();
        let fingerprint = ilt_runtime::config_fingerprint(&[case], &config);
        assert_eq!(format!("{fingerprint:016x}"), "a80c6a8483709498");
    }
}

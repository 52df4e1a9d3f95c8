//! Deterministic fault injection for chaos-testing the runtime.
//!
//! A [`FaultPlan`] is a declarative, fully deterministic description of the
//! failures a run should suffer: which job, which attempt, what kind. It is
//! rich enough to exercise every recovery path the engine claims to have —
//! panic isolation, attempt timeouts, checkpoint-write durability gaps, the
//! NaN guard in the optimize loop, simulator-cache build failures, and a
//! hard process crash immediately after a checkpoint becomes durable (the
//! "kill -9 mid-run" used by `tests/resume_e2e.rs`). Plans are written in
//! one grammar, [`FaultPlan::parse`]'s, which `--inject`, `inject=` and the
//! tests all use.
//!
//! Determinism is the point: a fault either fires at `(job_id, attempt)` or
//! it does not, for every execution, regardless of thread count.

use std::fmt;
use std::time::Duration;

/// What a single injected fault does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FaultKind {
    /// Panic at the start of the attempt (exercises `catch_unwind` + retry).
    Panic,
    /// Sleep this many milliseconds at the start of the attempt (push it
    /// past the pool's per-attempt timeout).
    Delay {
        /// Milliseconds to stall before doing any work.
        ms: u64,
    },
    /// Fail simulator acquisition with an I/O-style error (retryable; the
    /// cache path for a build that dies underneath a job).
    BuildError,
    /// Poison the finished mask with a NaN so the numeric guard must catch
    /// it and fail the attempt with a `"numeric"` reason.
    PoisonNan,
    /// Fail the checkpoint write of this job's result: the job succeeds in
    /// memory but is *not* durable, so a resume must re-run it.
    CheckpointError,
}

impl FaultKind {
    fn token(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Delay { .. } => "delay",
            FaultKind::BuildError => "build",
            FaultKind::PoisonNan => "nan",
            FaultKind::CheckpointError => "ckpt",
        }
    }
}

/// One injected fault, addressed to a job and a range of attempts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct FaultSpec {
    /// The target job id.
    job_id: usize,
    /// First 1-based attempt the fault fires on.
    first_attempt: u32,
    /// Last 1-based attempt the fault fires on (inclusive).
    last_attempt: u32,
    /// What happens.
    kind: FaultKind,
}

impl FaultSpec {
    fn matches(&self, job_id: usize, attempt: u32) -> bool {
        self.job_id == job_id && (self.first_attempt..=self.last_attempt).contains(&attempt)
    }
}

/// A deterministic plan of injected faults for one run.
///
/// Empty by default (no faults). Query methods are keyed by
/// `(job_id, attempt)` where `attempt` is the pool's 1-based attempt
/// counter; the degraded fallback attempt uses the next attempt number
/// after the last retry, so plans can target it too.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
    /// Abort the process right after this job's checkpoint becomes durable.
    crash_after_checkpoint: Option<usize>,
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty() && self.crash_after_checkpoint.is_none()
    }

    /// The largest job id any spec targets (for validation against the
    /// planned job count).
    pub fn max_job_id(&self) -> Option<usize> {
        self.specs
            .iter()
            .map(|s| s.job_id)
            .chain(self.crash_after_checkpoint)
            .max()
    }

    /// True when the attempt should panic.
    pub fn should_panic(&self, job_id: usize, attempt: u32) -> bool {
        self.fires(job_id, attempt, |k| matches!(k, FaultKind::Panic))
    }

    /// The artificial stall for this attempt, if any.
    pub fn delay(&self, job_id: usize, attempt: u32) -> Option<Duration> {
        self.specs
            .iter()
            .find_map(|s| match (s.matches(job_id, attempt), s.kind) {
                (true, FaultKind::Delay { ms }) => Some(Duration::from_millis(ms)),
                _ => None,
            })
    }

    /// True when simulator acquisition should fail for this attempt.
    pub fn build_error(&self, job_id: usize, attempt: u32) -> bool {
        self.fires(job_id, attempt, |k| matches!(k, FaultKind::BuildError))
    }

    /// True when the attempt's result mask should be poisoned with NaN.
    pub fn poison_nan(&self, job_id: usize, attempt: u32) -> bool {
        self.fires(job_id, attempt, |k| matches!(k, FaultKind::PoisonNan))
    }

    /// True when this job's checkpoint write should fail. Checkpoints are
    /// written once per job (after its successful attempt), so this matches
    /// any attempt range covering the job at all.
    pub fn checkpoint_error(&self, job_id: usize) -> bool {
        self.specs
            .iter()
            .any(|s| s.job_id == job_id && matches!(s.kind, FaultKind::CheckpointError))
    }

    /// True when the process must abort right after this job's checkpoint
    /// is durable.
    pub fn crash_after_checkpoint(&self, job_id: usize) -> bool {
        self.crash_after_checkpoint == Some(job_id)
    }

    fn fires(&self, job_id: usize, attempt: u32, pred: impl Fn(FaultKind) -> bool) -> bool {
        self.specs.iter().any(|s| s.matches(job_id, attempt) && pred(s.kind))
    }

    /// Parses a comma-separated fault-spec list, the `--inject` CLI syntax:
    ///
    /// - `panic@J` — panic on every attempt of job `J`
    /// - `panic@J:A` — panic on attempt `A` only; `panic@J:A-B` for a range
    /// - `delay@J:A=MS` — stall attempt `A` by `MS` milliseconds
    /// - `build@J:A` — fail simulator acquisition on attempt `A`
    /// - `nan@J:A` — poison the result of attempt `A` with NaN
    /// - `ckpt@J` — fail job `J`'s checkpoint write
    /// - `crash@J` — abort the process after job `J`'s checkpoint is durable
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed entry.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = Self::default();
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (kind_tok, rest) = entry
                .split_once('@')
                .ok_or_else(|| format!("fault spec `{entry}`: expected kind@job[:attempt]"))?;
            let (addr, arg) = match rest.split_once('=') {
                Some((a, v)) => (a, Some(v)),
                None => (rest, None),
            };
            let (job_tok, attempts_tok) = match addr.split_once(':') {
                Some((j, a)) => (j, Some(a)),
                None => (addr, None),
            };
            let job_id: usize = job_tok
                .parse()
                .map_err(|_| format!("fault spec `{entry}`: bad job id `{job_tok}`"))?;
            let (first, last) = match attempts_tok {
                None => (1, u32::MAX),
                Some(a) => match a.split_once('-') {
                    Some((lo, hi)) => (
                        lo.parse()
                            .map_err(|_| format!("fault spec `{entry}`: bad attempt `{lo}`"))?,
                        hi.parse()
                            .map_err(|_| format!("fault spec `{entry}`: bad attempt `{hi}`"))?,
                    ),
                    None => {
                        let n: u32 = a
                            .parse()
                            .map_err(|_| format!("fault spec `{entry}`: bad attempt `{a}`"))?;
                        (n, n)
                    }
                },
            };
            if first == 0 || first > last {
                return Err(format!("fault spec `{entry}`: attempts are 1-based, first <= last"));
            }
            let kind = match (kind_tok, arg) {
                ("panic", None) => FaultKind::Panic,
                ("delay", Some(ms)) => FaultKind::Delay {
                    ms: ms
                        .parse()
                        .map_err(|_| format!("fault spec `{entry}`: bad delay `{ms}`"))?,
                },
                ("delay", None) => {
                    return Err(format!("fault spec `{entry}`: delay needs `=MS`"));
                }
                ("build", None) => FaultKind::BuildError,
                ("nan", None) => FaultKind::PoisonNan,
                ("ckpt", None) => FaultKind::CheckpointError,
                ("crash", None) => {
                    // A crash fires once, when the job's checkpoint lands;
                    // silently dropping an attempt range here would make
                    // parse → Display → parse lossy, so reject it instead.
                    if attempts_tok.is_some() {
                        return Err(format!(
                            "fault spec `{entry}`: crash takes no attempt range"
                        ));
                    }
                    plan.crash_after_checkpoint = Some(job_id);
                    continue;
                }
                _ => {
                    return Err(format!(
                        "fault spec `{entry}`: unknown kind `{kind_tok}` (panic, delay, build, nan, ckpt, crash)"
                    ));
                }
            };
            plan.specs.push(FaultSpec { job_id, first_attempt: first, last_attempt: last, kind });
        }
        Ok(plan)
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for s in &self.specs {
            if !first {
                f.write_str(",")?;
            }
            first = false;
            write!(f, "{}@{}", s.kind.token(), s.job_id)?;
            if (s.first_attempt, s.last_attempt) != (1, u32::MAX) {
                if s.first_attempt == s.last_attempt {
                    write!(f, ":{}", s.first_attempt)?;
                } else {
                    write!(f, ":{}-{}", s.first_attempt, s.last_attempt)?;
                }
            }
            if let FaultKind::Delay { ms } = s.kind {
                write!(f, "={ms}")?;
            }
        }
        if let Some(j) = self.crash_after_checkpoint {
            if !first {
                f.write_str(",")?;
            }
            write!(f, "crash@{j}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_fires_nothing() {
        let p = FaultPlan::none();
        assert!(p.is_empty());
        assert!(!p.should_panic(0, 1));
        assert!(p.delay(0, 1).is_none());
        assert!(!p.checkpoint_error(0));
        assert!(!p.crash_after_checkpoint(0));
        assert_eq!(p.max_job_id(), None);
    }

    #[test]
    fn attempt_ranges_address_precisely() {
        let p = FaultPlan::parse("panic@3:2,nan@5:1-2").unwrap();
        assert!(!p.should_panic(3, 1));
        assert!(p.should_panic(3, 2));
        assert!(!p.should_panic(3, 3));
        assert!(!p.should_panic(4, 2));
        assert!(p.poison_nan(5, 1));
        assert!(p.poison_nan(5, 2));
        assert!(!p.poison_nan(5, 3));
        assert_eq!(p.max_job_id(), Some(5));
    }

    #[test]
    fn parse_round_trips_every_kind() {
        let p = FaultPlan::parse("panic@0, delay@1:2=250, build@2:1, nan@3:1-3, ckpt@4, crash@5")
            .unwrap();
        assert!(p.should_panic(0, 1) && p.should_panic(0, 99));
        assert_eq!(p.delay(1, 2), Some(Duration::from_millis(250)));
        assert!(p.delay(1, 1).is_none());
        assert!(p.build_error(2, 1) && !p.build_error(2, 2));
        assert!(p.poison_nan(3, 3) && !p.poison_nan(3, 4));
        assert!(p.checkpoint_error(4));
        assert!(p.crash_after_checkpoint(5) && !p.crash_after_checkpoint(4));
        assert_eq!(p.max_job_id(), Some(5));
        let display = p.to_string();
        let reparsed = FaultPlan::parse(&display).unwrap();
        assert_eq!(p, reparsed, "Display must round-trip: {display}");
    }

    #[test]
    fn every_kind_round_trips_parse_display_parse() {
        // The grammar must be a fixed point: parse → Display reproduces the
        // input exactly, and Display → parse reproduces the plan exactly,
        // for every kind and every attempt-address form.
        for spec in [
            "panic@0",
            "panic@0:2",
            "panic@0:2-3",
            "delay@1=250",
            "delay@1:2=250",
            "delay@1:2-4=250",
            "build@2",
            "build@2:1",
            "nan@3",
            "nan@3:1-3",
            "ckpt@4",
            "ckpt@4:2",
            "crash@5",
            "panic@0:2,delay@1:2=250,crash@5",
        ] {
            let plan = FaultPlan::parse(spec).unwrap();
            let display = plan.to_string();
            assert_eq!(display, spec, "Display must reproduce the input");
            let reparsed = FaultPlan::parse(&display).unwrap();
            assert_eq!(plan, reparsed, "parse(Display) must reproduce the plan");
        }
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "panic",
            "panic@x",
            "delay@1:1",
            "warp@0",
            "panic@1:0",
            "panic@1:3-2",
            "crash@5:2",
            "read_stall@1",
            "read_stall@1:1",
            "conn_refuse@1=5",
            "torn_response@x",
            "garble@1:0",
            // The transport kinds left the grammar; a test proxy damages
            // real reply bytes instead.
            "garble@0",
            "conn_refuse@0:1",
            "read_stall@1=5",
            "torn_response@2",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` must be rejected");
        }
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }
}

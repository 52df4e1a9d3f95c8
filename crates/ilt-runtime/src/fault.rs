//! Deterministic fault injection for chaos-testing the runtime.
//!
//! A [`FaultPlan`] is a declarative, fully deterministic description of the
//! failures a run's attempts should suffer: which job, which attempt, what
//! kind. It holds only what a test cannot cause from outside the process:
//! a panic inside one attempt (panic isolation and retry), an in-process
//! stall (attempt timeouts) and a NaN on chosen attempts only (the numeric
//! guard). Plans are written in one grammar, [`FaultPlan::parse`]'s, which
//! `--inject` and the tests use. A plan belongs to the process it damages:
//! `ilt batch`, `ilt worker` and `ilt serve` take one on their own command
//! line, and no job description, state log or shard dispatch carries one.
//! What a test can cause from outside is not a kind: a crash is a SIGKILL
//! the test sends, a bad optics config fails the real simulator build, and
//! a checkpoint write fails on a state directory the test has damaged.
//!
//! Determinism is the point: a fault either fires at `(job_id, attempt)` or
//! it does not, for every execution, regardless of thread count.

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
    /// Poison the finished mask with a NaN so the numeric guard must catch
    /// it and fail the attempt with a `"numeric"` reason.
    PoisonNan,
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
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// The largest job id any spec targets (for validation against the
    /// planned job count).
    pub fn max_job_id(&self) -> Option<usize> {
        self.specs.iter().map(|s| s.job_id).max()
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

    /// True when the attempt's result mask should be poisoned with NaN.
    pub fn poison_nan(&self, job_id: usize, attempt: u32) -> bool {
        self.fires(job_id, attempt, |k| matches!(k, FaultKind::PoisonNan))
    }

    fn fires(&self, job_id: usize, attempt: u32, pred: impl Fn(FaultKind) -> bool) -> bool {
        self.specs.iter().any(|s| s.matches(job_id, attempt) && pred(s.kind))
    }

    /// Parses a comma-separated fault-spec list, the `--inject` CLI syntax:
    ///
    /// - `panic@J` — panic on every attempt of job `J`
    /// - `panic@J:A` — panic on attempt `A` only; `panic@J:A-B` for a range
    /// - `delay@J:A=MS` — stall attempt `A` by `MS` milliseconds
    /// - `nan@J:A` — poison the result of attempt `A` with NaN
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
                ("nan", None) => FaultKind::PoisonNan,
                _ => {
                    return Err(format!(
                        "fault spec `{entry}`: unknown kind `{kind_tok}` (panic, delay, nan)"
                    ));
                }
            };
            plan.specs.push(FaultSpec { job_id, first_attempt: first, last_attempt: last, kind });
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_fires_nothing() {
        let p = FaultPlan::none();
        assert!(!p.should_panic(0, 1));
        assert!(p.delay(0, 1).is_none());
        assert!(!p.poison_nan(0, 1));
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
    fn parse_answers_every_kind() {
        let p = FaultPlan::parse("panic@0, delay@1:2=250, nan@3:1-3").unwrap();
        assert!(p.should_panic(0, 1) && p.should_panic(0, 99));
        assert_eq!(p.delay(1, 2), Some(Duration::from_millis(250)));
        assert!(p.delay(1, 1).is_none());
        assert!(p.poison_nan(3, 3) && !p.poison_nan(3, 4));
        assert_eq!(p.max_job_id(), Some(3));
    }

    /// Every kind in every attempt-address form fires on exactly the
    /// attempts it names: `J` on all of them, `J:A` on `A`, `J:A-B` on
    /// `A..=B`.
    #[test]
    fn every_address_form_fires_on_the_attempts_it_names() {
        type Query = fn(&FaultPlan, u32) -> bool;
        let fired = |spec: &str, query: Query| -> Vec<u32> {
            let plan = FaultPlan::parse(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
            (1..=5).filter(|&attempt| query(&plan, attempt)).collect()
        };
        let panic: Query = |p, a| p.should_panic(0, a);
        let delay: Query = |p, a| p.delay(1, a) == Some(Duration::from_millis(250));
        let nan: Query = |p, a| p.poison_nan(3, a);
        for (spec, query, attempts) in [
            ("panic@0", panic, &[1, 2, 3, 4, 5][..]),
            ("panic@0:2", panic, &[2]),
            ("panic@0:2-3", panic, &[2, 3]),
            ("delay@1=250", delay, &[1, 2, 3, 4, 5]),
            ("delay@1:2=250", delay, &[2]),
            ("delay@1:2-4=250", delay, &[2, 3, 4]),
            ("nan@3", nan, &[1, 2, 3, 4, 5]),
            ("nan@3:1-3", nan, &[1, 2, 3]),
            ("panic@0:2,delay@1:2=250", panic, &[2]),
            ("panic@0:2,delay@1:2=250", delay, &[2]),
        ] {
            assert_eq!(fired(spec, query), attempts, "{spec}");
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
            // So did `crash`: a test kills the process itself.
            "crash@0",
            "crash@5:2",
            // So did the build and checkpoint kinds: a test fails the real
            // simulator build or the real mask write instead.
            "build@0:1",
            "ckpt@0",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` must be rejected");
        }
        for (spec, kind) in [("crash@0", "crash"), ("build@0:1", "build"), ("ckpt@0", "ckpt")] {
            let err = FaultPlan::parse(spec).unwrap_err();
            assert!(err.contains(&format!("unknown kind `{kind}` (panic, delay, nan)")), "{err}");
        }
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::none());
    }
}

//! `batch_tiles`: one M1 clip per op through `ilt_runtime::run_batch` — tile
//! extraction, the worker pool, the shared simulator cache, per-tile
//! evaluation, stitching, stitched evaluation and the journal — and the
//! probes of `ilt-runtime`.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use ilt_core::{schedules, IltConfig, Stage};
use ilt_field::Field2D;
use ilt_layouts::iccad2013_case;
use ilt_metrics::{EpeChecker, EvalReport};
use ilt_optics::OpticsConfig;
use ilt_runtime::{
    run_batch, run_batch_resume, BatchCase, BatchConfig, BatchOutcome, SeamPolicy, SimulatorCache,
    TileGrid,
};

use crate::checks::{check_mask, HashBook, Quality};
use crate::harness::{
    median_of, run_ops, seeded_cycle, Budget, Metrics, RunConfig, Tracer, Window,
};
use crate::Workload;

const THREADS_WANTED: usize = 2;

pub struct Batch {
    cases: Vec<BatchCase>,
    config: BatchConfig,
    cache: SimulatorCache,
    journal_dir: PathBuf,
    hashes: HashBook,
    reference_mask: Option<Field2D>,
}

impl Batch {
    /// The optics a job of `grid` pixels runs on, as `run_batch` derives it.
    fn optics(&self, grid: usize) -> OpticsConfig {
        OpticsConfig {
            grid,
            nm_per_px: self.cases[0].nm_per_px,
            ..self.config.optics.clone()
        }
    }

    /// One op: the batch run, then its journal written as JSON Lines.
    fn op(&mut self, i: usize, tracer: &Tracer) -> Result<BatchOutcome, String> {
        let case = &self.cases[i % self.cases.len()];
        let span = tracer.begin(&format!("op {}", case.name), None, i);
        let run = tracer.begin("ilt-runtime.run_batch", span, i);
        let outcome = run_batch(std::slice::from_ref(case), &self.config, &self.cache);
        tracer.end(run);
        let outcome = outcome.inspect_err(|_| tracer.end(span))?;
        let journal = self.journal_dir.join("journal.jsonl");
        let written = tracer.scope("ilt-runtime.write_jsonl", span, i, || {
            outcome.report.write_jsonl(&journal)
        });
        tracer.end(span);
        written.map_err(|e| format!("journal write: {e}"))?;

        // Stage times the runtime reported for each tile, as children of
        // the run_batch span, laid end to end per pool thread.
        let mut lane_us = vec![0.0f64; self.config.threads];
        for rec in &outcome.report.records {
            let lane = rec.job_id % self.config.threads;
            for (stage, ms) in [
                ("tile.sim", rec.times.sim_ms),
                ("tile.optimize", rec.times.optimize_ms),
                ("tile.evaluate", rec.times.evaluate_ms),
            ] {
                tracer.import(
                    &format!("{stage} #{}", rec.job_id),
                    run,
                    i,
                    lane_us[lane],
                    ms * 1e3,
                );
                lane_us[lane] += ms * 1e3;
            }
        }

        let result = &outcome.cases[0];
        if outcome.report.failed_jobs() + outcome.report.degraded_jobs() > 0
            || result.failed_tiles + result.degraded_tiles + result.cancelled_tiles > 0
        {
            return Err(format!(
                "{}: {} failed, {} degraded, {} cancelled tiles",
                case.name, result.failed_tiles, result.degraded_tiles, result.cancelled_tiles
            ));
        }
        check_mask(&result.mask, case.target.shape().0)?;
        self.hashes.check(&case.name, &result.mask)?;
        if i.is_multiple_of(self.cases.len()) {
            self.reference_mask = Some(result.mask.clone());
        }
        Ok(outcome)
    }
}

impl Workload for Batch {
    fn setup(cfg: &RunConfig) -> Result<Self, String> {
        let (grid, tile, halo) = cfg.shapes.batch;
        let cases: Vec<BatchCase> = seeded_cycle(&mut cfg.rng(2))
            .into_iter()
            .map(|id| {
                let layout = iccad2013_case(id);
                BatchCase {
                    name: layout.name().to_string(),
                    target: layout.rasterize(grid),
                    nm_per_px: layout.nm_per_px(grid),
                }
            })
            .collect();
        let config = BatchConfig {
            threads: cfg.capped(THREADS_WANTED),
            tile,
            halo,
            seam: SeamPolicy::Crop,
            optics: OpticsConfig {
                num_kernels: cfg.shapes.kernels,
                ..OpticsConfig::default()
            },
            ilt: IltConfig::default(),
            schedule: if cfg.smoke {
                vec![Stage::low_res(1, 2)]
            } else {
                schedules::our_fast()
            },
            evaluate_stitched: true,
            checkpoint: None,
            ..BatchConfig::default()
        };
        let batch = Batch {
            cases,
            config,
            cache: SimulatorCache::new(),
            journal_dir: cfg.temp_dir("batch"),
            hashes: HashBook::default(),
            reference_mask: None,
        };
        // The priming op: the reference clip with every stage cut to one
        // iteration. It builds the two simulators every op shares (tile
        // window, stitched evaluation) and warms the pool's workspaces.
        let primer = BatchConfig {
            schedule: batch
                .config
                .schedule
                .iter()
                .map(|st| Stage {
                    iterations: 1,
                    ..*st
                })
                .collect(),
            ..batch.config.clone()
        };
        run_batch(&batch.cases[..1], &primer, &batch.cache)?;
        Ok(batch)
    }

    fn threads(&self) -> Vec<(&'static str, usize, usize)> {
        vec![("compute_threads", self.config.threads, THREADS_WANTED)]
    }

    fn window(&mut self, budget: Budget, tracer: &Tracer) -> Window {
        run_ops(budget, |i| self.op(i, tracer).map(drop))
    }

    fn quality(&mut self) -> Result<Quality, String> {
        let mask = self
            .reference_mask
            .as_ref()
            .ok_or("no reference mask was produced")?;
        let target = &self.cases[0].target;
        let sim = self.cache.get_or_build(&self.optics(target.shape().0))?;
        Ok(Quality::evaluate(&sim, target, mask))
    }

    fn teardown(self) {
        let _ = std::fs::remove_dir_all(&self.journal_dir);
    }
}

fn dir_bytes(dir: &std::path::Path) -> f64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len() as f64)
                .sum()
        })
        .unwrap_or(0.0)
}

/// Probes of `ilt-runtime`, on the reference clip of a fresh `batch_tiles`
/// set-up.
pub fn probes(cfg: &RunConfig, tracer: &Tracer, out: &mut Metrics) -> Result<(), String> {
    let mut batch = Batch::setup(cfg)?;
    let threads = batch.config.threads as f64;
    // The first full-length op after a set-up still grows workspaces.
    batch.op(0, &Tracer::new(false))?;

    let (hits0, misses0) = (batch.cache.hits(), batch.cache.misses());
    let t = Instant::now();
    let outcome = batch.op(0, tracer)?;
    let op_s = t.elapsed().as_secs_f64();
    out.put(
        "ilt-runtime.cache_hits",
        (batch.cache.hits() - hits0) as f64,
        "count",
    );
    out.put(
        "ilt-runtime.cache_misses",
        (batch.cache.misses() - misses0) as f64,
        "count",
    );

    let records = &outcome.report.records;
    let sum_s = |f: fn(&ilt_runtime::JobRecord) -> f64| records.iter().map(f).sum::<f64>() / 1e3;
    let tile_wall_s = sum_s(|r| r.wall_ms);
    out.put("ilt-runtime.tiles", records.len() as f64, "count");
    out.put(
        "ilt-runtime.attempts",
        records.iter().map(|r| f64::from(r.attempts)).sum(),
        "count",
    );
    out.put(
        "ilt-runtime.failed_tiles",
        outcome.cases[0].failed_tiles as f64,
        "count",
    );
    out.put(
        "ilt-runtime.degraded_tiles",
        outcome.cases[0].degraded_tiles as f64,
        "count",
    );
    out.put("ilt-runtime.tile_sim_s", sum_s(|r| r.times.sim_ms), "s");
    out.put(
        "ilt-runtime.tile_optimize_s",
        sum_s(|r| r.times.optimize_ms),
        "s",
    );
    out.put(
        "ilt-runtime.tile_evaluate_s",
        sum_s(|r| r.times.evaluate_ms),
        "s",
    );
    out.put(
        "ilt-runtime.pool_efficiency",
        tile_wall_s / (threads * op_s),
        "ratio",
    );

    // The serial parts, replayed through the same public calls.
    let case = batch.cases[0].clone();
    let (grid, tile, halo) = cfg.shapes.batch;
    let tiles = TileGrid::new(grid, tile, halo)?;
    let extract = median_of(5, || {
        tracer.scope("ilt-runtime.extract", None, 0, || {
            tiles
                .specs()
                .iter()
                .map(|s| tiles.extract(&case.target, s))
                .collect::<Vec<_>>()
        })
    });
    out.put("ilt-runtime.extract_s", extract, "s");
    let windows: Vec<Option<Field2D>> = tiles
        .specs()
        .iter()
        .map(|s| Some(tiles.extract(&case.target, s)))
        .collect();
    let stitch = median_of(5, || {
        tracer.scope("ilt-runtime.stitch", None, 0, || {
            tiles.stitch(&windows, SeamPolicy::Crop, &case.target)
        })
    });
    out.put("ilt-runtime.stitch_s", stitch, "s");

    let sim = batch.cache.get_or_build(&batch.optics(grid))?;
    let mask = &outcome.cases[0].mask;
    let checker = EpeChecker {
        nm_per_px: case.nm_per_px,
        ..EpeChecker::default()
    };
    let stitched_eval = median_of(3, || {
        tracer.scope("ilt-runtime.stitched_eval", None, 0, || {
            let c = sim.print_corners(mask);
            EvalReport::evaluate(
                &case.target,
                mask,
                &c.nominal,
                &c.inner,
                &c.outer,
                &checker,
                Duration::ZERO,
            )
        })
    });
    out.put("ilt-runtime.stitched_eval_s", stitched_eval, "s");

    let journal = batch.journal_dir.join("probe.jsonl");
    let journal_write = median_of(5, || outcome.report.write_jsonl(&journal));
    out.put("ilt-runtime.journal_write_s", journal_write, "s");
    out.put(
        "ilt-runtime.journal_bytes",
        outcome.report.to_jsonl().len() as f64,
        "B",
    );
    out.put(
        "ilt-runtime.overhead_s",
        op_s - tile_wall_s / threads - stitched_eval,
        "s",
    );

    // The same batch run with the checkpoint WAL on, then a resume over the
    // complete WAL (every tile restored, none run).
    let wal = cfg.temp_dir("wal");
    batch.config.checkpoint = Some(wal.clone());
    let cases = std::slice::from_ref(&case);
    let t = Instant::now();
    tracer.scope("ilt-runtime.run_batch checkpointed", None, 0, || {
        run_batch(cases, &batch.config, &batch.cache)
    })?;
    let checkpointed_s = t.elapsed().as_secs_f64();
    batch.config.checkpoint = None;
    let t = Instant::now();
    run_batch(cases, &batch.config, &batch.cache)?;
    out.put(
        "ilt-runtime.ckpt_overhead_s",
        checkpointed_s - t.elapsed().as_secs_f64(),
        "s",
    );
    batch.config.checkpoint = Some(wal.clone());
    out.put("ilt-runtime.ckpt_bytes", dir_bytes(&wal), "B");
    let t = Instant::now();
    let resumed = tracer.scope("ilt-runtime.run_batch_resume", None, 0, || {
        run_batch_resume(cases, &batch.config, &batch.cache, true)
    })?;
    out.put("ilt-runtime.resume_s", t.elapsed().as_secs_f64(), "s");
    let _ = std::fs::remove_dir_all(&wal);
    if resumed.restored_jobs != records.len() {
        return Err(format!(
            "resume restored {} of {} tiles",
            resumed.restored_jobs,
            records.len()
        ));
    }
    batch.teardown();
    Ok(())
}

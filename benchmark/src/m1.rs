//! `m1_fast` and `m1_lowres`: single-threaded multi-level ILT on the ten
//! ICCAD-2013-style M1 clips, and the probes of the compute layers under it.

use std::sync::Arc;
use std::time::Instant;

use ilt_autodiff::Graph;
use ilt_core::{schedules, BinaryFunction, IltConfig, LossWeights, MultiLevelIlt, Stage};
use ilt_fft::{with_thread_scratch, Complex64, Fft2d};
use ilt_field::{avg_pool_down, upsample_nearest, Field2D};
use ilt_geom::shot_count;
use ilt_layouts::iccad2013_case;
use ilt_metrics::{EpeChecker, EvalReport};
use ilt_optics::{LithoSimulator, OpticsConfig, ProcessCondition};

use crate::checks::{check_mask, HashBook, Quality};
use crate::harness::{
    median_of, run_ops, seeded_cycle, Budget, Metrics, RunConfig, Shapes, Tracer, Window,
};
use crate::Workload;

/// Which schedule an op runs.
#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    /// Our-fast clamped to the clip's pitch: low-res then high-res at `s`.
    Fast,
    /// Our-exact's low-resolution stage alone: everything at `N/s`.
    Lowres,
}

fn schedule(kind: Kind, shapes: &Shapes, nm_per_px: f64) -> Vec<Stage> {
    let s = shapes.scale;
    match kind {
        // Smoke grids are too coarse for the paper's pitch clamp (it would
        // collapse every stage to s = 1); keep the two-level structure.
        Kind::Fast if shapes.hi < 1024 => vec![Stage::low_res(s, 3), Stage::high_res(s, 1)],
        Kind::Lowres if shapes.hi < 1024 => vec![Stage::low_res(s, 4)],
        // At 2 nm/px the 8 nm effective-pitch ceiling turns Our-fast's
        // [low(4,35), high(8,5)] into [low(4,35), high(4,5)].
        Kind::Fast => schedules::clamp_effective_pitch(&schedules::our_fast(), nm_per_px, 8.0),
        Kind::Lowres => vec![schedules::our_exact()[0]],
    }
}

fn optics(shapes: &Shapes, nm_per_px: f64) -> OpticsConfig {
    OpticsConfig {
        grid: shapes.hi,
        nm_per_px,
        num_kernels: shapes.kernels,
        ..OpticsConfig::default()
    }
}

/// The same stages cut to one iteration each: the priming op of a cold
/// set-up, which reaches every lazily built plan and workspace.
fn one_iteration(stages: &[Stage]) -> Vec<Stage> {
    stages
        .iter()
        .map(|st| Stage {
            iterations: 1,
            ..*st
        })
        .collect()
}

/// State of an M1 workload: one simulator and a short cycle of clips.
pub struct M1 {
    n: usize,
    ilt: MultiLevelIlt,
    schedule: Vec<Stage>,
    /// `(name, target)`, reference clip first, the rest picked by the seed.
    cases: Vec<(String, Field2D)>,
    hashes: HashBook,
    reference_mask: Option<Field2D>,
}

impl M1 {
    fn setup_kind(kind: Kind, cfg: &RunConfig) -> Result<Self, String> {
        let shapes = &cfg.shapes;
        let layouts: Vec<_> = seeded_cycle(&mut cfg.rng(1))
            .into_iter()
            .map(iccad2013_case)
            .collect();
        let nm_per_px = layouts[0].nm_per_px(shapes.hi);
        let cases: Vec<_> = layouts
            .iter()
            .map(|l| (l.name().to_string(), l.rasterize(shapes.hi)))
            .collect();
        let sim = Arc::new(LithoSimulator::new(optics(shapes, nm_per_px))?);
        let ilt = MultiLevelIlt::new(sim, IltConfig::default());
        let schedule = schedule(kind, shapes, nm_per_px);
        std::hint::black_box(ilt.run(&cases[0].1, &one_iteration(&schedule)));
        Ok(M1 {
            n: shapes.hi,
            ilt,
            schedule,
            cases,
            hashes: HashBook::default(),
            reference_mask: None,
        })
    }

    fn op(&mut self, i: usize, tracer: &Tracer) -> Result<(), String> {
        let (name, target) = &self.cases[i % self.cases.len()];
        let span = tracer.begin(&format!("op {name}"), None, i);
        let result = tracer.scope("ilt-core.run", span, i, || {
            self.ilt.run(target, &self.schedule)
        });
        tracer.end(span);
        let planned: usize = self.schedule.iter().map(|s| s.iterations).sum();
        if result.total_iterations != planned {
            return Err(format!(
                "{name}: ran {} of {planned} iterations",
                result.total_iterations
            ));
        }
        check_mask(&result.mask, self.n)?;
        self.hashes.check(name, &result.mask)?;
        if i.is_multiple_of(self.cases.len()) {
            self.reference_mask = Some(result.mask);
        }
        Ok(())
    }
}

impl Workload for M1 {
    /// `m1_lowres` runs the low-resolution schedule, `m1_fast` the other.
    fn setup(cfg: &RunConfig) -> Result<Self, String> {
        let kind = if cfg.workload == "m1_lowres" {
            Kind::Lowres
        } else {
            Kind::Fast
        };
        M1::setup_kind(kind, cfg)
    }

    fn threads(&self) -> Vec<(&'static str, usize, usize)> {
        vec![("compute_threads", 1, 1)]
    }

    fn window(&mut self, budget: Budget, tracer: &Tracer) -> Window {
        run_ops(budget, |i| self.op(i, tracer))
    }

    fn quality(&mut self) -> Result<Quality, String> {
        let mask = self
            .reference_mask
            .as_ref()
            .ok_or("no reference mask was produced")?;
        Ok(Quality::evaluate(
            self.ilt.simulator(),
            &self.cases[0].1,
            mask,
        ))
    }

    fn teardown(self) {}
}

/// One Eq. 5 step built through the public `Graph` API, as the optimizer
/// builds it: low-res when `up == 1`, else high-res (upsample by `up`,
/// simulate at full size, pool the wafer images back). Returns the node
/// count.
fn eq5_step(sim: &Arc<LithoSimulator>, m_raw: &Field2D, z_t_s: &Field2D, up: usize) -> usize {
    let mut g = Graph::new(sim.clone());
    let v_raw = g.leaf(m_raw.clone());
    let binary = BinaryFunction::paper_sigmoid();
    let mask = if up == 1 {
        let smoothed = g.avg_pool_same(v_raw, 3);
        binary.apply(&mut g, smoothed)
    } else {
        let m_s = binary.apply(&mut g, v_raw);
        g.upsample_nearest(m_s, up)
    };
    let (alpha, i_th) = (sim.config().resist_steepness, sim.config().resist_threshold);
    let (outer, inner) = (ProcessCondition::outer(), ProcessCondition::inner());
    let i_out = g.hopkins(mask, outer.defocus);
    let mut z_out = g.resist_sigmoid(i_out, alpha, outer.dose, i_th);
    let i_in = g.hopkins(mask, inner.defocus);
    let mut z_in = g.resist_sigmoid(i_in, alpha, inner.dose, i_th);
    if up > 1 {
        z_out = g.avg_pool_down(z_out, up);
        z_in = g.avg_pool_down(z_in, up);
    }
    let loss = LossWeights::paper().build(&mut g, z_out, z_in, z_t_s, mask);
    std::hint::black_box(g.scalar(loss));
    let grads = g.backward(loss);
    std::hint::black_box(grads.wrt(v_raw).expect("the mask influences the loss"));
    g.len()
}

/// Times the four pruned transforms the simulator uses at size `m`; returns
/// `(fwd_real_cropped, inv_padded_batch over K, fwd_cropped, inv_padded)`.
fn fft_probe(m: usize, p: usize, k: usize, reps: usize, tracer: &Tracer, tag: &str) -> [f64; 4] {
    let fft = Fft2d::new(m, m);
    let img: Vec<f64> = (0..m * m).map(|i| ((i * 7) % 13) as f64 / 13.0).collect();
    let full: Vec<Complex64> = img.iter().map(|&v| Complex64::new(v, 1.0 - v)).collect();
    let spec: Vec<Complex64> = (0..p * p)
        .map(|i| Complex64::new((i % 5) as f64, (i % 3) as f64))
        .collect();
    let specs: Vec<&[Complex64]> = (0..k).map(|_| spec.as_slice()).collect();
    let mut low = vec![Complex64::ZERO; p * p];
    let mut out = vec![Complex64::ZERO; m * m];
    with_thread_scratch(|scratch| {
        let a = median_of(reps, || {
            tracer.scope(
                &format!("ilt-fft.forward_real_cropped_with {tag}"),
                None,
                0,
                || fft.forward_real_cropped_with(&img, p, &mut low, scratch),
            )
        });
        let b = median_of(reps, || {
            tracer.scope(
                &format!("ilt-fft.inverse_padded_batch_with {tag}"),
                None,
                0,
                || {
                    fft.inverse_padded_batch_with(
                        &specs,
                        p,
                        |_, z| {
                            std::hint::black_box(z);
                        },
                        scratch,
                    )
                },
            )
        });
        let c = median_of(reps, || {
            tracer.scope(
                &format!("ilt-fft.forward_cropped_with {tag}"),
                None,
                0,
                || fft.forward_cropped_with(&full, p, &mut low, scratch),
            )
        });
        let d = median_of(reps, || {
            tracer.scope(
                &format!("ilt-fft.inverse_padded_with {tag}"),
                None,
                0,
                || fft.inverse_padded_with(&spec, p, &mut out, scratch),
            )
        });
        [a, b, c, d]
    })
}

/// Probes of `ilt-fft`, `ilt-optics`, `ilt-autodiff`, `ilt-field`,
/// `ilt-core`, `ilt-metrics`, `ilt-geom` and `ilt-layouts` at the M1
/// workloads' shapes (`hi` = full grid, `lo` = `hi / s`).
pub fn probes(cfg: &RunConfig, tracer: &Tracer, out: &mut Metrics) -> Result<(), String> {
    let shapes = &cfg.shapes;
    let (hi, lo, s, k) = (shapes.hi, shapes.lo(), shapes.scale, shapes.kernels);
    let layout = iccad2013_case(1);
    let nm_per_px = layout.nm_per_px(hi);

    let t = Instant::now();
    let target = tracer.scope("ilt-layouts.rasterize", None, 0, || layout.rasterize(hi));
    out.put("ilt-layouts.rasterize_s", t.elapsed().as_secs_f64(), "s");

    let t = Instant::now();
    let sim = tracer.scope("ilt-optics.LithoSimulator::new", None, 0, || {
        LithoSimulator::new(optics(shapes, nm_per_px))
    })?;
    out.put("ilt-optics.sim_build_s", t.elapsed().as_secs_f64(), "s");
    let sim = Arc::new(sim);
    let p = sim.kernels(false).p();

    // ilt-fft: an iteration is 2 forward + 2 adjoint Hopkins evaluations;
    // forward = 1 real cropped + K padded inverses, adjoint = K padded
    // inverses + K cropped forwards + 1 padded inverse.
    let mut fft_iter = [0.0f64; 2];
    for (slot, (tag, m, reps)) in [("hi", hi, 5), ("lo", lo, 15)].into_iter().enumerate() {
        let [fwd_real, inv_batch, fwd, inv] = fft_probe(m, p, k, reps, tracer, tag);
        out.put(&format!("ilt-fft.fwd_real_cropped_{tag}_s"), fwd_real, "s");
        out.put(&format!("ilt-fft.inv_padded_batch_{tag}_s"), inv_batch, "s");
        out.put(&format!("ilt-fft.fwd_cropped_{tag}_s"), fwd, "s");
        out.put(&format!("ilt-fft.inv_padded_{tag}_s"), inv, "s");
        let kf = k as f64;
        fft_iter[slot] = 2.0 * (fwd_real + inv_batch) + 2.0 * (kf * (inv + fwd) + inv);
        // Computed from array sizes, not measured: each transform reads or
        // writes one m x m complex (or real) array and one p x p block.
        let (mm, pp) = ((m * m) as f64, (p * p) as f64);
        let per_forward = 8.0 * mm + 16.0 * pp + kf * (16.0 * pp + 16.0 * mm);
        let per_adjoint = kf * 2.0 * (16.0 * pp + 16.0 * mm) + 16.0 * pp + 16.0 * mm;
        out.put(
            &format!("ilt-fft.computed_mb_per_iter_{tag}"),
            2.0 * (per_forward + per_adjoint) / 1e6,
            "MB",
        );
    }
    out.put(
        "ilt-fft.transforms_per_iter",
        (2 * (1 + k) + 2 * (2 * k + 1)) as f64,
        "count",
    );

    // ilt-optics: forward and adjoint Hopkins at both sizes.
    let mask_hi = target.clone();
    let mask_lo = avg_pool_down(&target, s);
    let mut optics_iter = [0.0f64; 2];
    for (slot, (tag, mask, reps)) in [("hi", &mask_hi, 3), ("lo", &mask_lo, 9)]
        .into_iter()
        .enumerate()
    {
        let aerial = median_of(reps, || {
            tracer.scope(
                &format!("ilt-optics.aerial_with_cache {tag}"),
                None,
                0,
                || sim.aerial_with_cache(mask, false),
            )
        });
        let (intensity, cache) = sim.aerial_with_cache(mask, false);
        let vjp = median_of(reps, || {
            tracer.scope(&format!("ilt-optics.aerial_vjp {tag}"), None, 0, || {
                sim.aerial_vjp(&cache, &intensity)
            })
        });
        out.put(&format!("ilt-optics.aerial_{tag}_s"), aerial, "s");
        out.put(&format!("ilt-optics.vjp_{tag}_s"), vjp, "s");
        optics_iter[slot] = 2.0 * (aerial + vjp);
        out.put(
            &format!("ilt-optics.self_{tag}_share"),
            (optics_iter[slot] - fft_iter[slot]) / optics_iter[slot],
            "ratio",
        );
    }
    let print_corners = median_of(3, || {
        tracer.scope("ilt-optics.print_corners", None, 0, || {
            sim.print_corners(&mask_hi)
        })
    });
    out.put("ilt-optics.print_corners_s", print_corners, "s");

    // ilt-autodiff: one Eq. 5 step per branch, and what is left of it once
    // the four Hopkins evaluations are taken out.
    let mut step = [0.0f64; 2];
    let mut nodes = 0;
    for (slot, (tag, up, reps)) in [("hi", s, 3), ("lo", 1, 9)].into_iter().enumerate() {
        step[slot] = median_of(reps, || {
            tracer.scope(&format!("ilt-autodiff.eq5_step {tag}"), None, 0, || {
                nodes = eq5_step(&sim, &mask_lo, &mask_lo, up)
            })
        });
        out.put(&format!("ilt-autodiff.step_{tag}_s"), step[slot], "s");
        out.put(
            &format!("ilt-autodiff.self_{tag}_s"),
            step[slot] - optics_iter[slot],
            "s",
        );
        out.put(
            &format!("ilt-fft.share_{tag}"),
            fft_iter[slot] / step[slot],
            "ratio",
        );
    }
    out.put("ilt-autodiff.nodes_per_step", nodes as f64, "count");

    let pool = median_of(5, || {
        tracer.scope("ilt-field.pool_upsample", None, 0, || {
            upsample_nearest(&avg_pool_down(&mask_hi, s), s)
        })
    });
    out.put("ilt-field.pool_upsample_s", pool, "s");

    // ilt-core: one whole run per schedule; what the iterations do not
    // explain is region masks, the update, best-mask clones and finalize.
    let ilt = MultiLevelIlt::new(sim.clone(), IltConfig::default());
    let mut fast_mask = None;
    for (tag, kind) in [("fast", Kind::Fast), ("lowres", Kind::Lowres)] {
        let stages = schedule(kind, shapes, nm_per_px);
        let t = Instant::now();
        let result = tracer.scope(&format!("ilt-core.run {tag}"), None, 0, || {
            ilt.run(&target, &stages)
        });
        let run_s = t.elapsed().as_secs_f64();
        let in_steps: f64 = stages
            .iter()
            .map(|st| {
                let high = st.kind == ilt_core::StageKind::HighRes;
                st.iterations as f64 * step[if high { 0 } else { 1 }]
            })
            .sum();
        let last = result.loss_history.last().ok_or("run recorded no loss")?;
        out.put(&format!("ilt-core.run_{tag}_s"), run_s, "s");
        out.put(&format!("ilt-core.self_{tag}_s"), run_s - in_steps, "s");
        out.put(
            &format!("ilt-core.iterations_{tag}"),
            result.total_iterations as f64,
            "count",
        );
        out.put(&format!("ilt-core.final_loss_{tag}"), last.loss, "loss");
        if kind == Kind::Fast {
            fast_mask = Some(result.mask);
        }
    }

    // ilt-metrics / ilt-geom on the mask just produced.
    let mask = fast_mask.expect("the fast schedule ran");
    let corners = sim.print_corners(&mask);
    let checker = EpeChecker {
        nm_per_px,
        ..EpeChecker::default()
    };
    let evaluate = median_of(3, || {
        tracer.scope("ilt-metrics.evaluate", None, 0, || {
            EvalReport::evaluate(
                &target,
                &mask,
                &corners.nominal,
                &corners.inner,
                &corners.outer,
                &checker,
                std::time::Duration::ZERO,
            )
        })
    });
    out.put("ilt-metrics.evaluate_s", evaluate, "s");
    let shots = median_of(3, || {
        tracer.scope("ilt-geom.shot_count", None, 0, || shot_count(&mask))
    });
    out.put("ilt-geom.shot_count_s", shots, "s");
    Ok(())
}

//! `reproduce`: the paper's artifacts through the `tsgb_bench::
//! experiments` functions — table 3, table 4, the figure-5 grid (all ten
//! methods on all ten datasets: fit → generate → evaluate), figure 6
//! (t-SNE), figures 1 and 8 (ranking) and figure 7 (domain
//! adaptation) — at the `smoke` scale preset with the model-based
//! measures switched on through `ExperimentCtx::bench.eval_cfg`.
//!
//! The traced pass runs the same artifacts, but drives the figure-5
//! grid through the public pieces itself (`MethodId::create` → `fit` →
//! checkpoint → `generate` → `suite::evaluate`, over the same
//! `tsgb_par::parallel_map` cell order) so fit, generate and evaluate
//! get their own spans; its scores must equal the untraced grid's bit
//! for bit.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use tsgb_bench::experiments::{self, ExperimentCtx, Scale};
use tsgb_data::spec::DatasetSpec;
use tsgb_eval::suite::{self, EvalConfig, EvalResult, Measure, Score};
use tsgb_methods::common::MethodId;
use tsgb_rand::rngs::SmallRng;
use tsgb_rand::SeedableRng;
use tsgbench::runner::{write_checkpoint, GridCell, GridResult, MethodReport};

use crate::measure::{median, Outcome};
use crate::{trace, Layers, RunCtx};

/// The `smoke` preset's dataset caps, as `experiments::figure5` passes
/// them to `run_grid`.
const MAX_R: usize = 24;
const MAX_L: usize = 12;
/// Set-up repetitions per batch. Set-up takes about a millisecond
/// here, so one batch runs before every pass and one after the last,
/// and `setup_s` is the median over all of them: spread over the run,
/// the batches do not all land in one slow moment of the machine.
const SETUPS: usize = 5;
/// Fewest timed passes: the bit-identity check needs a repeat.
const MIN_PASSES: usize = 2;

/// The artifacts of one pass, in run order.
const ARTIFACTS: [&str; 7] = [
    "table3", "table4", "figure5", "figure6", "figure1", "figure8", "figure7",
];

/// Lower-case method key used in metric names (`COSCI-GAN` →
/// `cosci-gan`).
pub fn method_key(m: MethodId) -> String {
    m.name().to_lowercase()
}

/// The output directory (per process, so it starts empty) and context,
/// and every dataset of the grid materialized once (checked, then
/// dropped: the experiments materialize their own copies).
fn setup(ctx_run: &RunCtx, dir: &Path) -> Result<ExperimentCtx, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut ctx = ExperimentCtx::new(Scale::Smoke, dir);
    ctx.bench.seed = ctx_run.seed;
    ctx.bench.eval_cfg = EvalConfig {
        repeats: 1,
        ..EvalConfig::fast()
    };
    for (i, spec) in DatasetSpec::all().iter().enumerate() {
        let _s = trace::span("data.materialize", i as u64);
        let d = spec
            .scaled(MAX_R)
            .with_max_len(MAX_L)
            .materialize(ctx_run.seed);
        if d.train.samples() == 0 || !d.train.all_finite() {
            return Err(format!(
                "dataset {} materialized empty or non-finite",
                spec.name
            ));
        }
    }
    Ok(ctx)
}

/// One pass's wall time, its output fingerprint (every score except
/// training time, every deterministic table), and whether its outputs
/// are finite.
struct Pass {
    wall_s: f64,
    fingerprint: String,
    finite: bool,
    artifacts: Vec<(&'static str, f64)>,
}

fn push_scores(fp: &mut String, tag: &str, scores: &EvalResult) -> bool {
    let mut finite = true;
    for (m, s) in scores.iter() {
        if m == Measure::TrainTime {
            continue;
        }
        finite &= s.mean.is_finite() && s.std.is_finite();
        let _ = writeln!(
            fp,
            "{tag} {} {:016x} {:016x}",
            m.label(),
            s.mean.to_bits(),
            s.std.to_bits()
        );
    }
    finite
}

/// Runs one artifact under its span, logging its wall time.
fn artifact<T>(log: &mut Vec<(&'static str, f64)>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let _s = trace::span(format!("reproduce.{name}"), 0);
    let t = Instant::now();
    let v = f();
    log.push((name, t.elapsed().as_secs_f64() * 1e3));
    v
}

fn pass(ctx: &ExperimentCtx, traced: bool) -> Pass {
    let t0 = Instant::now();
    let root = trace::span("reproduce.pass", 0);
    let mut log = Vec::new();
    let t3 = artifact(&mut log, "table3", || experiments::table3(ctx));
    let t4 = artifact(&mut log, "table4", || experiments::table4(ctx));
    let grid = artifact(&mut log, "figure5", || {
        if traced {
            traced_grid(ctx)
        } else {
            experiments::figure5(ctx).0
        }
    });
    let f6 = artifact(&mut log, "figure6", || experiments::figure6(ctx, &grid));
    let (f1a, f1b) = artifact(&mut log, "figure1", || experiments::figure1(ctx, &grid));
    let (cd, t8) = artifact(&mut log, "figure8", || experiments::figure8(ctx, &grid));
    let (da, _) = artifact(&mut log, "figure7", || experiments::figure7(ctx));
    drop(root);
    let wall_s = t0.elapsed().as_secs_f64();

    let mut fp = String::new();
    let mut finite = true;
    // the score cube behind figures 1 and 8 must be complete and finite
    let measures: Vec<Measure> = Measure::FIGURE5.to_vec();
    for plane in grid.score_cube(&measures) {
        for row in plane {
            finite &= row.iter().all(|v| v.is_finite());
        }
    }
    for c in &grid.cells {
        finite &= push_scores(
            &mut fp,
            &format!("grid {} {}", c.method.name(), c.dataset),
            &c.report.scores,
        );
    }
    for c in &da {
        let tag = format!(
            "da {} {} {}",
            c.task.label(),
            c.method.name(),
            c.scenario.label()
        );
        finite &= push_scores(&mut fp, &tag, &c.report.scores);
    }
    finite &= cd.avg_ranks.iter().all(|r| r.is_finite());
    for r in &cd.avg_ranks {
        let _ = writeln!(fp, "rank {:016x}", r.to_bits());
    }
    for t in [&t3, &t4, &f6, &f1a, &f1b, &t8] {
        let text = t.render();
        finite &= !text.contains("NaN") && !text.contains("inf");
        fp.push_str(&text);
    }
    Pass {
        wall_s,
        fingerprint: fp,
        finite,
        artifacts: log,
    }
}

/// `run_grid` driven through the public pieces with a span around each
/// step. Cell order, per-cell seeds and checkpoint layout follow
/// `Benchmark::run_grid`; the bit-identity check against the untraced
/// grid holds this copy to it.
fn traced_grid(ctx: &ExperimentCtx) -> GridResult {
    let bench = &ctx.bench;
    let specs = DatasetSpec::all();
    let prepared: Vec<_> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let _s = trace::span("data.materialize", i as u64);
            (
                spec,
                spec.scaled(MAX_R)
                    .with_max_len(MAX_L)
                    .materialize(bench.seed),
            )
        })
        .collect();
    let m = ctx.methods.len();
    let par = trace::span("par.parallel_map", 0);
    let par_id = par.id();
    let cells = tsgb_par::parallel_map(prepared.len() * m, |idx| {
        let _cell = trace::span_in(par_id, "runner.cell", idx as u64);
        let (spec, data) = &prepared[idx / m];
        let mid = ctx.methods[idx % m];
        let key = method_key(mid);
        let mut method = mid.create(data.train.seq_len(), data.train.features());
        let mut rng = SmallRng::seed_from_u64(
            bench.seed ^ (mid as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let train = {
            let _s = trace::span(format!("methods.fit.{key}"), idx as u64);
            method.fit(&data.train, &bench.train_cfg, &mut rng)
        };
        if let Some(dir) = &bench.ckpt_dir {
            let _s = trace::span("runner.checkpoint", idx as u64);
            let sub = dir.join(spec.name.to_lowercase().replace(' ', "-"));
            if let Err(e) = write_checkpoint(&sub, method.as_ref()) {
                eprintln!("warning: failed to write {} checkpoint: {e}", method.name());
            }
        }
        let n = bench.gen_samples.unwrap_or(data.train.samples());
        let generated = {
            let _s = trace::span(format!("methods.generate.{key}"), idx as u64);
            method.generate(n, &mut rng)
        };
        let mut scores = {
            let _s = trace::span("eval.suite", idx as u64);
            suite::evaluate(&data.train, &generated, &bench.eval_cfg, &mut rng)
        };
        scores.set(
            Measure::TrainTime,
            Score {
                mean: train.train_seconds,
                std: 0.0,
            },
        );
        GridCell {
            method: mid,
            dataset: spec.name.to_string(),
            report: MethodReport {
                method: method.name().to_string(),
                train,
                scores,
                generated,
            },
        }
    });
    drop(par);
    GridResult {
        methods: ctx.methods.clone(),
        datasets: specs.iter().map(|d| d.name.to_string()).collect(),
        cells,
        max_r: MAX_R,
        max_l: MAX_L,
    }
}

/// One batch of set-ups, timing each into `setup_s`.
fn setups(run: &RunCtx, dir: &Path, setup_s: &mut Vec<f64>) -> Result<ExperimentCtx, String> {
    let mut ctx = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        ctx = Some(setup(run, dir)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    Ok(ctx.expect("at least one setup"))
}

pub fn run(run: &RunCtx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let dir = run.work_dir.join("out");
    if !run.trace {
        let mut setup_s = Vec::new();
        let ctx = setups(run, &dir, &mut setup_s)?;
        let mut passes: Vec<Pass> = Vec::new();
        let t0 = Instant::now();
        // start another pass only while it should end within the run's
        // seconds
        while passes.len() < MIN_PASSES
            || t0.elapsed().as_secs_f64() * (passes.len() + 1) as f64 / passes.len() as f64
                <= run.seconds
        {
            passes.push(pass(&ctx, false));
            setups(run, &dir, &mut setup_s)?;
        }
        let mut ok = true;
        for p in &passes {
            let same = p.fingerprint == passes[0].fingerprint;
            if !same {
                eprintln!("reproduce: a repeat pass produced different outputs");
            }
            out.op(p.finite && same);
            ok &= p.finite && same;
        }
        out.correct = ok;
        let walls: Vec<f64> = passes.iter().map(|p| p.wall_s * 1e3).collect();
        out.metric("setup_s", median(&setup_s), "s");
        out.metric("peak_rss_mb", crate::measure::peak_rss_mb(), "MB");
        out.metric("op_ms_p50", median(&walls), "ms");
        out.metric(
            "ops_per_s",
            passes.len() as f64 * 1e3 / walls.iter().sum::<f64>(),
            "1/s",
        );
        out.detail("reproduce.passes", passes.len());
        out.detail("reproduce.wall_s", median(&walls) / 1e3);
        out.detail(
            "reproduce.wall_s_max",
            walls.iter().fold(0.0f64, |m, &w| m.max(w)) / 1e3,
        );
        for name in ARTIFACTS {
            let ms: Vec<f64> = passes
                .iter()
                .flat_map(|p| p.artifacts.iter().filter(|a| a.0 == name).map(|a| a.1))
                .collect();
            out.detail(format!("reproduce.artifact_ms.{name}"), median(&ms));
        }
        return Ok(out);
    }

    // traced run: a traced setup (for data.materialize), one untraced
    // pass, then one traced pass with the program's own metrics on
    trace::set_enabled(true);
    let setup_root = trace::span("reproduce.setup", 0);
    let setup_id = setup_root.id();
    let ctx = setup(run, &dir)?;
    drop(setup_root);
    trace::set_enabled(false);
    let plain = pass(&ctx, false);

    tsgb_obs::reset();
    tsgb_obs::set_enabled(true);
    trace::set_enabled(true);
    let traced = pass(&ctx, true);
    trace::set_enabled(false);
    tsgb_obs::set_enabled(false);
    let snap = tsgb_obs::snapshot();

    let same = traced.fingerprint == plain.fingerprint;
    if !same {
        eprintln!("reproduce: the traced pass produced different outputs from the untraced pass");
    }
    out.op(plain.finite);
    out.op(traced.finite && same);
    out.correct = plain.finite && traced.finite && same;

    let spans = trace::spans();
    let pass_root = spans
        .iter()
        .find(|s| s.name == "reproduce.pass")
        .map(|s| s.id)
        .ok_or("the traced pass recorded no root span")?;
    let bd = trace::breakdown(&spans, pass_root)?;
    let setup_bd = trace::breakdown(&spans, setup_id)?;
    run.write_trace(&spans, &bd)?;

    let mut layers = Layers::default();
    layers.obs(&snap);
    layers.set("data.materialize_ms", setup_bd.total_ms("data.materialize"));
    for name in ARTIFACTS {
        layers.set(
            &format!("reproduce.artifact_ms.{name}"),
            bd.total_ms(&format!("reproduce.{name}")),
        );
    }
    layers.set("reproduce.unattributed_ms", bd.root_unattributed_ms);
    let par_ms = bd.total_ms("par.parallel_map");
    let cells = bd.count("runner.cell") as usize;
    let threads = tsgb_par::max_threads().min(cells.max(1));
    layers.set(
        "par.busy_ratio",
        bd.total_ms("runner.cell") / (par_ms * threads as f64),
    );
    for mid in MethodId::ALL {
        let key = method_key(mid);
        layers.set(
            &format!("methods.generate_ms.{key}"),
            bd.total_ms(&format!("methods.generate.{key}")),
        );
    }
    layers.set(
        "stats.rank_ms",
        bd.total_ms("reproduce.figure1") + bd.total_ms("reproduce.figure8"),
    );
    layers.set("trace.overhead_ratio", traced.wall_s / plain.wall_s - 1.0);
    layers.set("trace.unattributed_ms", bd.root_unattributed_ms);
    layers.emit(&mut out);
    out.detail("reproduce.threads", threads);
    Ok(out)
}

//! The repository benchmark: three seeded workloads driven through the
//! public APIs of the workspace crates.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload reproduce|eval_rescore|serve_open --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics untraced; `--trace 1`
//! runs the workload once untraced and once with spans recorded around
//! every call into a layer, and reports the per-layer metrics. The last
//! line of standard output is the result object; the line before it
//! carries workload-specific figures under the names `PREDICTIONS.md`
//! uses. Spans and their breakdown are written under
//! `.bench_build/perfbench/` at exit. Run it from the repository root.

mod measure;
mod reproduce;
mod rescore;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use measure::Outcome;
use tsgb_methods::common::MethodId;

/// Metrics of the untraced run, shared by every workload; see
/// `PREDICTIONS.md` for what each means per workload.
const END_TO_END: [&str; 4] = ["setup_s", "peak_rss_mb", "op_ms_p50", "ops_per_s"];

/// Measures whose per-measure time the suite records.
const MEASURES: [&str; 9] = ["ds", "ps", "c-fid", "mdd", "acd", "sd", "kd", "ed", "dtw"];

/// Every per-layer metric with its unit, in report order. A workload
/// reports 0 for a layer it does not exercise.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = vec![("data.materialize_ms".into(), "ms")];
    for a in [
        "table3", "table4", "figure5", "figure6", "figure1", "figure8", "figure7",
    ] {
        v.push((format!("reproduce.artifact_ms.{a}"), "ms"));
    }
    v.push(("reproduce.unattributed_ms".into(), "ms"));
    v.push(("par.busy_ratio".into(), "ratio"));
    for m in MethodId::ALL {
        v.push((format!("methods.fit_ms.{}", reproduce::method_key(m)), "ms"));
    }
    for m in MethodId::ALL {
        v.push((
            format!("methods.generate_ms.{}", reproduce::method_key(m)),
            "ms",
        ));
    }
    for model in ["timevae", "rgan"] {
        for b in ["b1", "b8"] {
            v.push((format!("methods.generate_batch_ms.{b}.{model}"), "ms"));
        }
    }
    v.push(("nn.plan.replay_ratio".into(), "ratio"));
    v.push(("nn.pool.miss_per_step".into(), "ratio"));
    for m in MEASURES {
        v.push((format!("eval.measure_ms.{m}"), "ms"));
    }
    v.push(("eval.tsne_ms".into(), "ms"));
    v.push(("evalcache.hit_ratio".into(), "ratio"));
    v.push(("evalcache.hits".into(), "count"));
    v.push(("evalcache.misses".into(), "count"));
    v.push(("evalcache.bytes".into(), "B"));
    v.push(("evalcache.evictions".into(), "count"));
    v.push(("stats.rank_ms".into(), "ms"));
    v.push(("serve.batch_size_mean".into(), "count"));
    v.push(("serve.forward_ms_mean".into(), "ms"));
    v.push(("serve.server_latency_ms_mean".into(), "ms"));
    v.push(("serve.queue_depth_max".into(), "count"));
    v.push(("serve.rejected".into(), "count"));
    v.push(("wire.client_overhead_ms_mean".into(), "ms"));
    v.push(("wire.response_bytes_mean".into(), "B"));
    v.push(("loadgen.late_ms_p99".into(), "ms"));
    v.push(("trace.overhead_ratio".into(), "ratio"));
    v.push(("trace.unattributed_ms".into(), "ms"));
    v
}

/// Per-layer values a traced run collects; [`Layers::emit`] writes the
/// full list in order, 0 for layers the workload did not touch.
#[derive(Default)]
pub struct Layers {
    values: BTreeMap<String, f64>,
}

impl Layers {
    pub fn set(&mut self, name: &str, v: f64) {
        self.values.insert(name.to_string(), v);
    }

    /// Reads what the program itself recorded while `tsgb_obs` was on:
    /// per-method fit time, per-measure eval time, t-SNE time, and the
    /// plan and pool counters of `tsgb-nn`.
    pub fn obs(&mut self, snap: &tsgb_obs::Snapshot) {
        for m in MethodId::ALL {
            let sum = hist(snap, &format!("train.fit_s.{}", m.name())).map_or(0.0, |h| h.sum);
            self.set(
                &format!("methods.fit_ms.{}", reproduce::method_key(m)),
                sum * 1e3,
            );
        }
        for (name, h) in &snap.histograms {
            if let Some(label) = name.strip_prefix("eval.measure_ms.") {
                self.set(&format!("eval.measure_ms.{}", label.to_lowercase()), h.sum);
            }
        }
        self.set(
            "eval.tsne_ms",
            hist(snap, "span.eval.tsne_ms").map_or(0.0, |h| h.sum),
        );
        let replays = counter(snap, "nn.plan.replays") as f64;
        let captures = counter(snap, "nn.plan.captures") as f64;
        let steps = counter(snap, "nn.tape.steps") as f64;
        self.set(
            "nn.plan.replay_ratio",
            if replays + captures > 0.0 {
                replays / (replays + captures)
            } else {
                0.0
            },
        );
        self.set(
            "nn.pool.miss_per_step",
            if steps > 0.0 {
                counter(snap, "nn.pool.miss") as f64 / steps
            } else {
                0.0
            },
        );
    }

    pub fn emit(self, out: &mut Outcome) {
        let list = per_layer();
        for name in self.values.keys() {
            assert!(
                list.iter().any(|(n, _)| n == name),
                "per-layer metric {name} is not in the list"
            );
        }
        for (name, unit) in list {
            let v = self.values.get(&name).copied().unwrap_or(0.0);
            out.metric(name, v, unit);
        }
    }
}

fn hist<'a>(snap: &'a tsgb_obs::Snapshot, name: &str) -> Option<&'a tsgb_obs::HistogramSnapshot> {
    snap.histograms
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, h)| h)
}

pub fn hist_mean(snap: &tsgb_obs::Snapshot, name: &str) -> f64 {
    hist(snap, name).map_or(0.0, |h| {
        if h.count > 0 {
            h.sum / h.count as f64
        } else {
            0.0
        }
    })
}

pub fn counter(snap: &tsgb_obs::Snapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

pub fn gauge(snap: &tsgb_obs::Snapshot, name: &str) -> f64 {
    snap.gauges
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, v)| *v)
}

/// One run's settings.
pub struct RunCtx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch space for this run, removed at exit.
    pub work_dir: PathBuf,
    pub nproc: usize,
}

impl RunCtx {
    /// Writes the span log and the breakdown table next to the scratch
    /// directory (kept after the run).
    pub fn write_trace(
        &self,
        spans: &[trace::SpanRec],
        bd: &trace::Breakdown,
    ) -> Result<(), String> {
        let base = PathBuf::from(OUT_DIR).join(format!("trace-{}-{}", self.workload, self.seed));
        trace::write_jsonl(&base.with_extension("jsonl"), spans)
            .map_err(|e| format!("write trace: {e}"))?;
        std::fs::write(base.with_extension("txt"), bd.table())
            .map_err(|e| format!("write breakdown: {e}"))?;
        eprint!("{}", bd.table());
        Ok(())
    }
}

/// Where runs write: inside the build directory, which `.gitignore`
/// excludes.
const OUT_DIR: &str = ".bench_build/perfbench";

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload reproduce|eval_rescore|serve_open --seed N --seconds S --trace 0|1"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next();
        match (flag.as_str(), value) {
            ("--workload", Some(v)) => workload = Some(v),
            ("--seed", Some(v)) => seed = v.parse::<u64>().ok(),
            ("--seconds", Some(v)) => seconds = v.parse::<f64>().ok().filter(|s| *s > 0.0),
            ("--trace", Some(v)) => traced = matches!(v.as_str(), "0" | "1").then(|| v == "1"),
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(traced)) =
        (workload, seed, seconds, traced)
    else {
        return usage();
    };
    let run_fn: fn(&RunCtx) -> Result<Outcome, String> = match workload.as_str() {
        "reproduce" => reproduce::run,
        "eval_rescore" => rescore::run,
        "serve_open" => serve::run,
        _ => return usage(),
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = tsgb_par::max_threads().min(nproc);
    let ctx = RunCtx {
        work_dir: PathBuf::from(OUT_DIR).join(format!("{workload}-{}", std::process::id())),
        workload,
        seed,
        seconds,
        trace: traced,
        nproc,
    };
    let result = tsgb_par::with_threads(threads, || run_fn(&ctx));
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
    match result {
        Ok(mut out) => {
            if !traced {
                let names: Vec<&str> = out.metrics.iter().map(|m| m.0.as_str()).collect();
                assert_eq!(names, END_TO_END, "end-to-end metrics out of order");
            }
            out.detail("threads", threads);
            out.detail("nproc", nproc);
            println!("{}", out.detail_json());
            println!("{}", out.result_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench {}: {e}", ctx.workload);
            ExitCode::FAILURE
        }
    }
}

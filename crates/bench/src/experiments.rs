//! Shared experiment drivers: every table and figure of the paper,
//! regenerated at a configurable scale. The `reproduce` binary calls
//! these and prints/writes the artifacts; integration tests smoke-run
//! them at tiny scale.

use std::path::{Path, PathBuf};
use tsgb_data::domain::{DaData, DaScale, DaTask};
use tsgb_data::pipeline::PreprocessedDataset;
use tsgb_data::sine;
use tsgb_data::spec::DatasetSpec;
use tsgb_eval::distplot::DistPlot;
use tsgb_eval::model_based::{self, PostHocConfig, PsVariant};
use tsgb_eval::suite::{self, EvalConfig, Measure};
use tsgb_eval::survey;
use tsgb_eval::tsne::{self, TsneConfig};
use tsgb_linalg::rng::seeded;
use tsgb_linalg::Matrix;
use tsgb_methods::common::MethodId;
use tsgb_methods::taxonomy;
use tsgb_stats::critdiff::{critical_difference, CriticalDifference};
use tsgb_stats::ranking;
use tsgbench::report::{fmt_score, fmt_time_bucket, TextTable};
use tsgbench::runner::{Benchmark, DaCell, GridResult};

/// Scale preset for the reproduction run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds per experiment; used by tests.
    Smoke,
    /// A few minutes for the full set; the default.
    Fast,
    /// Tens of minutes; closer shapes.
    Standard,
}

impl Scale {
    fn max_r(self) -> usize {
        match self {
            Scale::Smoke => 24,
            Scale::Fast => 64,
            Scale::Standard => 128,
        }
    }

    fn max_l(self) -> usize {
        match self {
            Scale::Smoke => 12,
            Scale::Fast => 24,
            Scale::Standard => 48,
        }
    }

    fn epochs(self) -> usize {
        match self {
            Scale::Smoke => 6,
            Scale::Fast => 40,
            Scale::Standard => 120,
        }
    }

    fn sine_r(self) -> usize {
        match self {
            Scale::Smoke => 100,
            Scale::Fast => 500,
            Scale::Standard => 2000,
        }
    }
}

/// Shared context: configuration plus the output directory for CSVs.
pub struct ExperimentCtx {
    /// The orchestrator.
    pub bench: Benchmark,
    /// Experiment scale.
    pub scale: Scale,
    /// Where CSV artifacts are written.
    pub out_dir: PathBuf,
    /// Which methods to run (defaults to all ten).
    pub methods: Vec<MethodId>,
}

impl ExperimentCtx {
    /// A context at the given scale writing under `out_dir`. Every
    /// trained method also leaves a `TSGBCK02` snapshot under
    /// `out_dir/checkpoints/` (grid cells in per-dataset
    /// subdirectories), ready for `tsgbench serve --ckpt-dir`.
    pub fn new(scale: Scale, out_dir: &Path) -> Self {
        let mut bench = Benchmark::quick();
        bench.train_cfg.epochs = scale.epochs();
        bench.eval_cfg = EvalConfig::fast();
        if scale == Scale::Smoke {
            bench.eval_cfg = EvalConfig::deterministic_only();
        }
        let bench = bench.with_ckpt_dir(out_dir.join("checkpoints"));
        Self {
            bench,
            scale,
            out_dir: out_dir.to_path_buf(),
            methods: MethodId::ALL.to_vec(),
        }
    }

    fn save(&self, name: &str, table: &TextTable) {
        let path = self.out_dir.join(name);
        if let Err(e) = table.write_csv(&path) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
}

/// Table 2: the method taxonomy.
pub fn table2() -> TextTable {
    let mut t = TextTable::new(&["Year", "Method", "Model", "Specialty", "Benchmarked"]);
    for e in taxonomy::table2() {
        t.row(vec![
            e.year.to_string(),
            e.method.to_string(),
            e.model.label().to_string(),
            e.specialty.to_string(),
            if e.benchmarked {
                "yes".into()
            } else {
                String::new()
            },
        ]);
    }
    t
}

/// Table 3: dataset statistics, regenerated by materializing each
/// (scaled) dataset through the pipeline and reporting what came out.
pub fn table3(ctx: &ExperimentCtx) -> TextTable {
    let mut t = TextTable::new(&[
        "Dataset",
        "R (paper)",
        "R (run)",
        "l (paper)",
        "l (run)",
        "N",
        "Domain",
    ]);
    for spec in DatasetSpec::all() {
        let scaled = spec
            .scaled(ctx.scale.max_r())
            .with_max_len(ctx.scale.max_l());
        let data = scaled.materialize(ctx.bench.seed);
        t.row(vec![
            spec.name.to_string(),
            spec.r.to_string(),
            data.r().to_string(),
            spec.l.to_string(),
            data.l.to_string(),
            spec.n.to_string(),
            spec.domain.to_string(),
        ]);
    }
    ctx.save("table3.csv", &t);
    t
}

/// Figure 4: the survey matrix of measures used by prior methods.
pub fn figure4() -> TextTable {
    let measures = survey::SurveyMeasure::ALL;
    let mut header: Vec<&str> = vec!["Method"];
    let labels: Vec<&str> = measures.iter().map(|m| m.label()).collect();
    header.extend(&labels);
    let mut t = TextTable::new(&header);
    for row in survey::figure4() {
        let mut cells = vec![row.method.to_string()];
        for m in measures {
            cells.push(if row.uses.contains(&m) {
                "x".into()
            } else {
                String::new()
            });
        }
        t.row(cells);
    }
    t
}

/// Figure 5: the main benchmarking grid. Returns the grid (for reuse
/// by Figures 1 and 8) plus one rendered table per measure.
pub fn figure5(ctx: &ExperimentCtx) -> (GridResult, Vec<(Measure, TextTable)>) {
    let specs = DatasetSpec::all();
    let grid = ctx
        .bench
        .run_grid(&ctx.methods, &specs, ctx.scale.max_r(), ctx.scale.max_l());
    let mut tables = Vec::new();
    let mut measures: Vec<Measure> = Vec::new();
    for m in Measure::FIGURE5 {
        // smoke scale skips the model-based measures
        if grid.cells.iter().any(|c| c.report.scores.get(m).is_some()) {
            measures.push(m);
        }
    }
    measures.push(Measure::TrainTime);
    for m in measures {
        let mut header: Vec<String> = vec!["Method".to_string()];
        header.extend(grid.datasets.iter().cloned());
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let mut t = TextTable::new(&header_refs);
        for &mid in &grid.methods {
            let mut cells = vec![mid.name().to_string()];
            for d in &grid.datasets {
                let cell = grid
                    .cells
                    .iter()
                    .find(|c| c.method == mid && &c.dataset == d)
                    .and_then(|c| c.report.scores.get(m));
                cells.push(match cell {
                    Some(s) if m == Measure::TrainTime => {
                        format!("{} ({:.2}s)", fmt_time_bucket(s.mean), s.mean)
                    }
                    Some(s) => fmt_score(s.mean, s.std),
                    None => "-".to_string(),
                });
            }
            t.row(cells);
        }
        ctx.save(
            &format!("figure5_{}.csv", m.label().replace([' ', '(', ')'], "")),
            &t,
        );
        tables.push((m, t));
    }
    (grid, tables)
}

/// Figure 6: t-SNE overlap and distribution-plot divergence per
/// (method, dataset) cell of an existing grid, plus CSV point clouds
/// for external plotting.
pub fn figure6(ctx: &ExperimentCtx, grid: &GridResult) -> TextTable {
    let cfg = TsneConfig {
        iterations: 120,
        ..TsneConfig::default()
    };
    // reference data: rematerialize each dataset used by the grid, once
    let data: Vec<PreprocessedDataset> = grid
        .datasets
        .iter()
        .map(|name| {
            DatasetSpec::all()
                .into_iter()
                .find(|s| s.name == name)
                .expect("dataset known")
                .scaled(grid.max_r)
                .with_max_len(grid.max_l)
                .materialize(ctx.bench.seed)
        })
        .collect();
    // (dataset index, windows compared) per cell
    let sizes: Vec<(usize, usize)> = grid
        .cells
        .iter()
        .map(|cell| {
            let d = grid
                .datasets
                .iter()
                .position(|name| name == &cell.dataset)
                .expect("cell dataset is a grid dataset");
            let take = data[d]
                .train
                .samples()
                .min(cell.report.generated.samples())
                .min(60);
            (d, take)
        })
        .collect();
    // the t-SNE inits are the only draws from the shared stream: take
    // them in cell order, then the cells are independent
    let mut rng = seeded(ctx.bench.seed ^ 0xF16);
    let inits: Vec<Matrix> = sizes
        .iter()
        .map(|&(_, take)| tsne::tsne_init(2 * take, &mut rng))
        .collect();
    let rows = tsgb_par::parallel_map(grid.cells.len(), |i| {
        let cell = &grid.cells[i];
        let (d, take) = sizes[i];
        let real_sub = data[d].train.slice_samples(0, take);
        let gen_sub = cell.report.generated.slice_samples(0, take);
        let emb = tsne::tsne_joint_from_init(&real_sub, &gen_sub, &cfg, &inits[i]);
        let overlap = tsne::nn_overlap(&emb);
        let plot = DistPlot::new(&real_sub, &gen_sub, 100);

        // export the embedding points for plotting
        let mut pts = TextTable::new(&["x", "y", "origin"]);
        for p in 0..emb.points.rows() {
            pts.row(vec![
                format!("{:.4}", emb.points[(p, 0)]),
                format!("{:.4}", emb.points[(p, 1)]),
                if p < emb.n_real {
                    "real".into()
                } else {
                    "generated".into()
                },
            ]);
        }
        ctx.save(
            &format!(
                "figure6_tsne_{}_{}.csv",
                cell.method.name().replace('-', ""),
                cell.dataset.replace(' ', "")
            ),
            &pts,
        );
        vec![
            cell.method.name().to_string(),
            cell.dataset.clone(),
            format!("{overlap:.3}"),
            format!("{:.3}", plot.divergence()),
        ]
    });
    let mut t = TextTable::new(&[
        "Method",
        "Dataset",
        "t-SNE NN overlap",
        "DistPlot divergence",
    ]);
    for row in rows {
        t.row(row);
    }
    ctx.save("figure6_summary.csv", &t);
    t
}

/// Figure 7: the generalization test. Runs the paper's TimeGAN
/// baseline plus the four efficient leaders over all DA tasks and the
/// three scenarios.
pub fn figure7(ctx: &ExperimentCtx) -> (Vec<DaCell>, TextTable) {
    let methods = da_methods(&ctx.methods);
    let scale = match ctx.scale {
        Scale::Smoke => DaScale {
            source_windows: 24,
            his_windows: 8,
            gt_windows: 24,
            max_l: 10,
        },
        Scale::Fast => DaScale::fast(),
        Scale::Standard => DaScale {
            max_l: 48,
            ..DaScale::full()
        },
    };
    let tasks: Vec<(DaTask, DaData)> = DaTask::all()
        .into_iter()
        .map(|task| {
            let data = task.materialize(&scale, ctx.bench.seed);
            (task, data)
        })
        .collect();
    let cells = ctx.bench.run_da_tasks(&tasks, &methods);
    let mut t = TextTable::new(&["Task", "Method", "Scenario", "ED", "DTW", "MDD", "Time (s)"]);
    for c in &cells {
        let g = |m: Measure| {
            c.report
                .scores
                .get(m)
                .map(|s| fmt_score(s.mean, s.std))
                .unwrap_or_else(|| "-".into())
        };
        t.row(vec![
            c.task.label(),
            c.method.name().to_string(),
            c.scenario.label().to_string(),
            g(Measure::Ed),
            g(Measure::Dtw),
            g(Measure::Mdd),
            format!("{:.2}", c.report.train.train_seconds),
        ]);
    }
    ctx.save("figure7.csv", &t);
    (cells, t)
}

/// The five methods of the paper's Figure 7 (TimeGAN baseline + the
/// efficient leaders), intersected with the configured subset.
pub fn da_methods(configured: &[MethodId]) -> Vec<MethodId> {
    [
        MethodId::TimeGan,
        MethodId::TimeVae,
        MethodId::CosciGan,
        MethodId::RtsGan,
        MethodId::Ls4,
    ]
    .into_iter()
    .filter(|m| configured.contains(m))
    .collect()
}

/// Table 4: the robustness test — every measure on identical inputs
/// and on independently re-sampled sine data, at the two paper shapes.
pub fn table4(ctx: &ExperimentCtx) -> TextTable {
    let mut t = TextTable::new(&[
        "Input",
        "Shape (R,l,N)",
        "DS",
        "PS",
        "PS (entire)",
        "C-FID",
        "MDD",
        "ACD",
        "SD",
        "KD",
        "ED",
        "DTW",
    ]);
    let mut rng = seeded(ctx.bench.seed ^ 0x7AB4);
    let post_hoc = match ctx.scale {
        Scale::Smoke => PostHocConfig {
            hidden: 8,
            epochs: 10,
        },
        Scale::Fast => PostHocConfig {
            hidden: 8,
            epochs: 60,
        },
        // standard gives the post-hoc models enough budget to escape
        // the predict-zero floor (see the ps_probe binary)
        Scale::Standard => PostHocConfig {
            hidden: 24,
            epochs: 800,
        },
    };
    let repeats = if ctx.scale == Scale::Smoke { 1 } else { 3 };
    for (r, l, n) in sine::table4_shapes(ctx.scale.sine_r()) {
        for identical in [true, false] {
            let a = sine::sine_dataset(r, l, n, &mut rng);
            let b = if identical {
                a.clone()
            } else {
                sine::sine_dataset(r, l, n, &mut rng)
            };

            let run_model_based = ctx.scale != Scale::Smoke;
            let (ds, ps, pse, cfid) = if run_model_based {
                let (ds_m, ds_s) = model_based::repeat_measure(repeats, &mut rng, |rr| {
                    model_based::discriminative_score(&a, &b, &post_hoc, rr)
                });
                let (ps_m, ps_s) = model_based::repeat_measure(repeats, &mut rng, |rr| {
                    model_based::predictive_score(&a, &b, PsVariant::NextStep, &post_hoc, rr)
                });
                let (pe_m, pe_s) = model_based::repeat_measure(repeats, &mut rng, |rr| {
                    model_based::predictive_score(&a, &b, PsVariant::Entire, &post_hoc, rr)
                });
                let (cf_m, cf_s) = model_based::repeat_measure(repeats, &mut rng, |rr| {
                    model_based::contextual_fid(&a, &b, 6, 40, rr)
                });
                (
                    fmt_score(ds_m, ds_s),
                    fmt_score(ps_m, ps_s),
                    fmt_score(pe_m, pe_s),
                    fmt_score(cf_m, cf_s),
                )
            } else {
                ("-".into(), "-".into(), "-".into(), "-".into())
            };

            let det = suite::evaluate(&a, &b, &EvalConfig::deterministic_only(), &mut rng);
            let g = |m: Measure| {
                det.get(m)
                    .map(|s| format!("{:.3}", s.mean))
                    .unwrap_or_else(|| "-".into())
            };
            t.row(vec![
                if identical {
                    "Identical".into()
                } else {
                    "Random Sampling".into()
                },
                format!("({r}, {l}, {n})"),
                ds,
                ps,
                pse,
                cfid,
                g(Measure::Mdd),
                g(Measure::Acd),
                g(Measure::Sd),
                g(Measure::Kd),
                g(Measure::Ed),
                g(Measure::Dtw),
            ]);
        }
    }
    ctx.save("table4.csv", &t);
    t
}

/// Figure 1: the two ranking heatmaps built from the Figure-5 grid.
pub fn figure1(ctx: &ExperimentCtx, grid: &GridResult) -> (TextTable, TextTable) {
    let measures: Vec<Measure> = Measure::FIGURE5
        .into_iter()
        .filter(|&m| grid.cells.iter().any(|c| c.report.scores.get(m).is_some()))
        .collect();
    let measure_names: Vec<String> = measures.iter().map(|m| m.label().to_string()).collect();
    let method_names: Vec<String> = grid.methods.iter().map(|m| m.name().to_string()).collect();
    let cube = grid.score_cube(&measures);
    let f1 = ranking::figure1(&measure_names, &grid.datasets, &method_names, &cube);

    let render = |g: &ranking::ScoreGrid, corner: &str| -> TextTable {
        let mut header: Vec<String> = vec![corner.to_string()];
        header.extend(g.methods.iter().cloned());
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let mut t = TextTable::new(&header_refs);
        for (case, row) in g.cases.iter().zip(&g.scores) {
            let mut cells = vec![case.clone()];
            cells.extend(row.iter().map(|r| format!("{r:.2}")));
            t.row(cells);
        }
        t
    };
    let by_measure = render(&f1.by_measure, "Measure");
    let by_dataset = render(&f1.by_dataset, "Dataset");
    ctx.save("figure1_by_measure.csv", &by_measure);
    ctx.save("figure1_by_dataset.csv", &by_dataset);
    (by_measure, by_dataset)
}

/// Measure-agreement analysis (§6.1's "the performance ranking across
/// all four measures appears to be consistent"): mean Spearman rank
/// correlation between every pair of measures, over the per-dataset
/// method rankings of a Figure-5 grid.
#[allow(clippy::needless_range_loop)] // cube/acc symmetric accumulation is clearer indexed
pub fn measure_agreement(ctx: &ExperimentCtx, grid: &GridResult) -> TextTable {
    let measures: Vec<Measure> = Measure::FIGURE5
        .into_iter()
        .filter(|&m| grid.cells.iter().any(|c| c.report.scores.get(m).is_some()))
        .collect();
    let cube = grid.score_cube(&measures); // [measure][dataset][method]
    let m = measures.len();
    // average the per-dataset pairwise Spearman over datasets
    let mut acc = vec![vec![0.0f64; m]; m];
    let n_datasets = grid.datasets.len();
    for d in 0..n_datasets {
        let rows: Vec<Vec<f64>> = (0..m).map(|mi| cube[mi][d].clone()).collect();
        let a = tsgb_stats::correlation::agreement_matrix(&rows);
        for i in 0..m {
            for j in 0..m {
                acc[i][j] += a[i][j];
            }
        }
    }
    let mut header: Vec<String> = vec!["Measure".to_string()];
    header.extend(measures.iter().map(|mm| mm.label().to_string()));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut t = TextTable::new(&header_refs);
    for (i, mi) in measures.iter().enumerate() {
        let mut cells = vec![mi.label().to_string()];
        for j in 0..m {
            cells.push(format!("{:.2}", acc[i][j] / n_datasets as f64));
        }
        t.row(cells);
    }
    ctx.save("measure_agreement.csv", &t);
    t
}

/// Figure 8: the critical-difference analysis over the Figure-5 grid.
pub fn figure8(ctx: &ExperimentCtx, grid: &GridResult) -> (CriticalDifference, TextTable) {
    let measures: Vec<Measure> = Measure::FIGURE5
        .into_iter()
        .filter(|&m| grid.cells.iter().any(|c| c.report.scores.get(m).is_some()))
        .collect();
    let blocks = grid.friedman_blocks(&measures);
    let names: Vec<String> = grid.methods.iter().map(|m| m.name().to_string()).collect();
    let cd = critical_difference(&names, &blocks, 0.05);
    let mut t = TextTable::new(&["Method", "Avg rank", "Tier"]);
    for (tier_idx, tier) in cd.tiers.iter().enumerate() {
        for &m in tier {
            t.row(vec![
                cd.methods[m].clone(),
                format!("{:.2}", cd.avg_ranks[m]),
                (tier_idx + 1).to_string(),
            ]);
        }
    }
    ctx.save("figure8.csv", &t);
    (cd, t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_ctx() -> ExperimentCtx {
        let dir = std::env::temp_dir().join("tsgb_experiments_test");
        let mut ctx = ExperimentCtx::new(Scale::Smoke, &dir);
        // two cheap methods keep the smoke run fast
        ctx.methods = vec![MethodId::TimeVae, MethodId::FourierFlow];
        ctx
    }

    #[test]
    fn static_tables_have_paper_shapes() {
        assert_eq!(table2().len(), 31);
        assert_eq!(figure4().len(), 10);
    }

    #[test]
    fn table3_has_ten_rows() {
        let ctx = smoke_ctx();
        let t = table3(&ctx);
        assert_eq!(t.len(), 10);
    }

    #[test]
    fn table4_runs_at_smoke_scale() {
        let ctx = smoke_ctx();
        let t = table4(&ctx);
        assert_eq!(t.len(), 4, "two shapes x identical/resampled");
        let rendered = t.render();
        assert!(rendered.contains("Identical"));
        assert!(rendered.contains("Random Sampling"));
    }

    #[test]
    fn figure5_through_8_pipeline_smoke() {
        let mut ctx = smoke_ctx();
        // limit datasets via the grid call directly: use two datasets
        let specs: Vec<DatasetSpec> = DatasetSpec::all().into_iter().take(2).collect();
        let grid = ctx.bench.run_grid(&ctx.methods, &specs, 16, 8);
        ctx.methods = grid.methods.clone();
        let (t1a, t1b) = figure1(&ctx, &grid);
        assert!(!t1a.is_empty());
        assert_eq!(t1b.len(), 2);
        let (cd, t8) = figure8(&ctx, &grid);
        assert_eq!(cd.methods.len(), 2);
        assert_eq!(t8.len(), 2);
        let t6 = figure6(&ctx, &grid);
        assert_eq!(t6.len(), grid.cells.len());
    }

    /// A reduced context writing under its own directory: the figure-6
    /// point clouds of two runs must not overwrite each other.
    fn reduced_ctx(tag: &str) -> ExperimentCtx {
        let dir = std::env::temp_dir().join(format!("tsgb_experiments_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create output dir");
        let mut ctx = ExperimentCtx::new(Scale::Smoke, &dir);
        ctx.bench.ckpt_dir = None;
        ctx.methods = vec![MethodId::TimeVae, MethodId::CosciGan];
        ctx
    }

    /// Figure 6's rendered table and point-cloud CSVs, over the
    /// two-dataset grid of [`reduced_ctx`].
    fn figure6_outputs(ctx: &ExperimentCtx) -> (String, Vec<(String, Vec<u8>)>) {
        let specs: Vec<DatasetSpec> = DatasetSpec::all().into_iter().take(2).collect();
        let grid = ctx.bench.run_grid(&ctx.methods, &specs, 16, 8);
        let table = figure6(ctx, &grid).render();
        let mut clouds: Vec<(String, Vec<u8>)> = std::fs::read_dir(&ctx.out_dir)
            .expect("read output dir")
            .map(|e| e.expect("dir entry").path())
            .filter(|p| {
                p.file_name()
                    .is_some_and(|n| n.to_string_lossy().starts_with("figure6_tsne_"))
            })
            .map(|p| {
                let name = p.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read(&p).expect("read point cloud"))
            })
            .collect();
        clouds.sort();
        (table, clouds)
    }

    #[test]
    fn figure6_and_figure7_are_thread_count_independent() {
        let runs: Vec<_> = [1, 4]
            .into_iter()
            .map(|threads| {
                tsgb_par::with_threads(threads, || {
                    let ctx = reduced_ctx(&format!("fig67_t{threads}"));
                    let f6 = figure6_outputs(&ctx);
                    let (cells, _) = figure7(&ctx);
                    let scores: Vec<(String, u64, u64)> = cells
                        .iter()
                        .flat_map(|c| {
                            c.report
                                .scores
                                .iter()
                                .filter(|(m, _)| *m != Measure::TrainTime)
                                .map(move |(m, s)| {
                                    (
                                        format!(
                                            "{} {} {} {}",
                                            c.task.label(),
                                            c.method.name(),
                                            c.scenario.label(),
                                            m.label()
                                        ),
                                        s.mean.to_bits(),
                                        s.std.to_bits(),
                                    )
                                })
                        })
                        .collect();
                    (f6, scores)
                })
            })
            .collect();
        let ((table1, clouds1), scores1) = &runs[0];
        let ((table4, clouds4), scores4) = &runs[1];
        assert_eq!(table1, table4, "figure 6 table moved with the thread count");
        assert_eq!(clouds1.len(), 4, "one point cloud per grid cell");
        assert_eq!(
            clouds1, clouds4,
            "figure 6 point clouds moved with the thread count"
        );
        assert_eq!(scores1.len(), scores4.len());
        assert!(!scores1.is_empty());
        assert_eq!(
            scores1, scores4,
            "figure 7 scores moved with the thread count"
        );
        // the t-SNE init split keeps the stream the single-call t-SNE
        // drew from: table and point clouds match the ones pinned
        // before the split (exact mode; Barnes-Hut embeds differently)
        if tsne::TsneMode::from_env() == tsne::TsneMode::Exact {
            let mut pinned = table1.clone();
            for (name, bytes) in clouds1 {
                pinned.push_str(&format!("# {name}\n"));
                pinned.push_str(std::str::from_utf8(bytes).expect("CSV is UTF-8"));
            }
            assert_eq!(
                pinned,
                include_str!("../tests/fixtures/figure6_reduced.txt"),
                "figure 6 moved from its pinned output"
            );
        }
    }
}

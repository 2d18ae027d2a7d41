//! Golden-value regression for the model-based measures (paper §4.2
//! M1–M3): DS, PS (next-step and entire-sequence) and C-FID with the
//! `EvalConfig::fast()` post-hoc settings, pinned **bit for bit** at
//! two shapes — a small one and the 28-feature `(48, 24, 28)` shape of
//! an Energy-sized reference.
//!
//! The post-hoc nets train on compiled plans by default; the values
//! must not depend on that. Every value is checked with plan
//! compilation forced on and forced off, and the cached C-FID form
//! (`cfid_ref(..).score(g)`) must equal `contextual_fid` in both modes.
//!
//! Regenerate the fixture after an *intentional* numeric change:
//!
//! ```text
//! TSGB_UPDATE_GOLDEN=1 cargo test -p tsgb-eval --test golden_model_based
//! ```

use tsgb_eval::model_based::{
    cfid_ref, contextual_fid, discriminative_score, predictive_score, PsVariant,
};
use tsgb_eval::suite::EvalConfig;
use tsgb_linalg::rng::seeded;
use tsgb_linalg::Tensor3;
use tsgb_nn::with_plan_mode;
use tsgb_rand::rngs::SmallRng;
use tsgb_rand::{Rng, SeedableRng};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_model_based.json"
);

/// `(samples, seq_len, features)` of the pinned workloads.
const SHAPES: [(usize, usize, usize); 2] = [(24, 12, 5), (48, 24, 28)];

/// Seed of every measure's RNG (one fresh stream per measure).
const SEED: u64 = 4242;

/// Per-feature sines in `[0.1, 0.9]`; `damp` squashes the amplitude so
/// the generated set is separable from the real one but not trivially.
fn sines(shape: (usize, usize, usize), seed: u64, damp: f64) -> Tensor3 {
    let (r, l, n) = shape;
    let mut rng = seeded(seed);
    let phases: Vec<f64> = (0..r * n)
        .map(|_| rng.gen::<f64>() * std::f64::consts::TAU)
        .collect();
    Tensor3::from_fn(r, l, n, |s, t, f| {
        let freq = 0.3 + 0.1 * f as f64;
        0.5 + 0.4 * damp * (freq * t as f64 + phases[s * n + f]).sin()
    })
}

/// Every pinned `(label, value)` of one shape, in fixture order.
fn measure_shape(shape: (usize, usize, usize)) -> Vec<(String, f64)> {
    let cfg = EvalConfig::fast();
    let real = sines(shape, 1, 1.0);
    let generated = sines(shape, 2, 0.7);
    let rng = || SmallRng::seed_from_u64(SEED);
    let (r, l, n) = shape;
    let tag = format!("{r}x{l}x{n}");
    let vals = [
        (
            "ds",
            discriminative_score(&real, &generated, &cfg.post_hoc, &mut rng()),
        ),
        (
            "ps",
            predictive_score(
                &real,
                &generated,
                PsVariant::NextStep,
                &cfg.post_hoc,
                &mut rng(),
            ),
        ),
        (
            "ps-entire",
            predictive_score(
                &real,
                &generated,
                PsVariant::Entire,
                &cfg.post_hoc,
                &mut rng(),
            ),
        ),
        (
            "c-fid",
            contextual_fid(
                &real,
                &generated,
                cfg.embed_dim,
                cfg.embed_epochs,
                &mut rng(),
            ),
        ),
    ];
    let cached = cfid_ref(&real, cfg.embed_dim, cfg.embed_epochs, SEED).score(&generated);
    assert_eq!(
        cached.to_bits(),
        vals[3].1.to_bits(),
        "{tag}: cfid_ref(..).score(g) differs from contextual_fid"
    );
    vals.into_iter()
        .map(|(m, v)| (format!("{m}@{tag}"), v))
        .collect()
}

fn measure_all() -> Vec<(String, f64)> {
    SHAPES.iter().flat_map(|&s| measure_shape(s)).collect()
}

fn render_fixture(vals: &[(String, f64)]) -> String {
    let rows: Vec<String> = vals
        .iter()
        .map(|(k, v)| format!("  \"{k}\": \"{:016x}\"", v.to_bits()))
        .collect();
    format!("{{\n{}\n}}\n", rows.join(",\n"))
}

/// `(label, bits)` rows of the fixture: one `"label": "hexbits"` pair
/// per line.
fn parse_fixture(s: &str) -> Vec<(String, u64)> {
    s.lines()
        .filter_map(|line| {
            let (k, v) = line.trim().trim_end_matches(',').split_once(':')?;
            let bits = u64::from_str_radix(v.trim().trim_matches('"'), 16).ok()?;
            Some((k.trim().trim_matches('"').to_string(), bits))
        })
        .collect()
}

#[test]
fn model_based_measures_match_fixture_with_plan_on_and_off() {
    if std::env::var_os("TSGB_UPDATE_GOLDEN").is_some() {
        let vals = with_plan_mode(false, measure_all);
        std::fs::write(FIXTURE, render_fixture(&vals)).expect("write fixture");
        return;
    }
    let expected = parse_fixture(
        &std::fs::read_to_string(FIXTURE)
            .expect("fixture missing; regenerate with TSGB_UPDATE_GOLDEN=1"),
    );
    assert_eq!(expected.len(), 4 * SHAPES.len(), "fixture row count");
    for plan in [true, false] {
        let got = with_plan_mode(plan, measure_all);
        assert_eq!(got.len(), expected.len(), "measure count (plan {plan})");
        for ((label, v), (exp_label, exp_bits)) in got.iter().zip(&expected) {
            assert_eq!(label, exp_label, "measure order changed vs fixture");
            assert_eq!(
                v.to_bits(),
                *exp_bits,
                "{label} drifted with plan {}: got {v:e}, fixture {:e}",
                if plan { "on" } else { "off" },
                f64::from_bits(*exp_bits)
            );
        }
    }
}

//! Golden-value regression for the adversarial fits: the loss history
//! and the generated samples of every GAN-family method, pinned **bit
//! for bit** at one small multichannel shape.
//!
//! GAN phases train one network against a frozen copy of the other, so
//! these fits are where the autodiff's requires-grad pruning and the
//! GEMM dispatch (direct, packed, band) all meet. None of them may move
//! a bit: every value is checked with plan compilation forced on and
//! off, crossed with the packed (default) and band GEMM paths.
//!
//! Regenerate the fixture after an *intentional* numeric change:
//!
//! ```text
//! TSGB_UPDATE_GOLDEN=1 cargo test -p tsgb-methods --test golden_gan_fits
//! ```

use tsgb_linalg::gemm::{with_gemm_mode, GemmMode};
use tsgb_linalg::Tensor3;
use tsgb_methods::common::{MethodId, TrainConfig};
use tsgb_nn::with_plan_mode;
use tsgb_rand::rngs::SmallRng;
use tsgb_rand::SeedableRng;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_gan_fits.json"
);

/// `(samples, seq_len, features)` of the training set.
const SHAPE: (usize, usize, usize) = (16, 8, 3);

/// Windows generated after each fit.
const GENERATED: usize = 5;

const METHODS: [MethodId; 7] = [
    MethodId::CosciGan,
    MethodId::Rgan,
    MethodId::TimeGan,
    MethodId::AecGan,
    MethodId::GtGan,
    MethodId::CRnnGan,
    MethodId::RtsGan,
];

fn cfg() -> TrainConfig {
    TrainConfig {
        epochs: 4,
        batch: 6,
        hidden: 12,
        latent: 4,
        lr: 2e-3,
        fresh_tapes: false,
    }
}

/// Phase-shifted per-channel sines in `[0.1, 0.9]`.
fn train_set() -> Tensor3 {
    let (r, l, n) = SHAPE;
    Tensor3::from_fn(r, l, n, |s, t, f| {
        let phase = s as f64 * 0.41 + f as f64 * 0.9;
        0.5 + 0.4 * (t as f64 * (0.35 + 0.1 * f as f64) + phase).sin()
    })
}

/// FNV-1a over the bit patterns of every generated value.
fn digest(t: &Tensor3) -> u64 {
    t.as_slice().iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
        v.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
    })
}

/// Every pinned `(label, bits)` of one method, in fixture order.
fn fit_one(mid: MethodId) -> Vec<(String, u64)> {
    let data = train_set();
    let (_, l, n) = SHAPE;
    let mut rng = SmallRng::seed_from_u64(7);
    let mut m = mid.create(l, n);
    let report = m.fit(&data, &cfg(), &mut rng);
    let out = m.generate(GENERATED, &mut rng);
    assert_eq!(out.shape(), (GENERATED, l, n), "{mid:?} sample shape");
    let key = mid.name();
    let mut rows: Vec<(String, u64)> = report
        .loss_history
        .iter()
        .enumerate()
        .map(|(e, v)| (format!("{key}.loss{e}"), v.to_bits()))
        .collect();
    rows.push((format!("{key}.samples"), digest(&out)));
    rows
}

fn fit_all() -> Vec<(String, u64)> {
    METHODS.iter().flat_map(|&m| fit_one(m)).collect()
}

fn render_fixture(vals: &[(String, u64)]) -> String {
    let rows: Vec<String> = vals
        .iter()
        .map(|(k, v)| format!("  \"{k}\": \"{v:016x}\""))
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
fn gan_fits_match_fixture_across_plan_and_gemm_modes() {
    if std::env::var_os("TSGB_UPDATE_GOLDEN").is_some() {
        let vals = with_plan_mode(false, || with_gemm_mode(GemmMode::Band, fit_all));
        std::fs::write(FIXTURE, render_fixture(&vals)).expect("write fixture");
        return;
    }
    let expected = parse_fixture(
        &std::fs::read_to_string(FIXTURE)
            .expect("fixture missing; regenerate with TSGB_UPDATE_GOLDEN=1"),
    );
    let per_method = cfg().epochs + 1;
    assert_eq!(
        expected.len(),
        per_method * METHODS.len(),
        "fixture row count"
    );
    for plan in [true, false] {
        for mode in [GemmMode::Packed, GemmMode::Band] {
            let got = with_plan_mode(plan, || with_gemm_mode(mode, fit_all));
            assert_eq!(
                got.len(),
                expected.len(),
                "row count (plan {plan}, {mode:?})"
            );
            for ((label, bits), (exp_label, exp_bits)) in got.iter().zip(&expected) {
                assert_eq!(label, exp_label, "row order changed vs fixture");
                assert_eq!(
                    bits,
                    exp_bits,
                    "{label} drifted with plan {}, {mode:?} GEMM: got {:e}, fixture {:e}",
                    if plan { "on" } else { "off" },
                    f64::from_bits(*bits),
                    f64::from_bits(*exp_bits)
                );
            }
        }
    }
}

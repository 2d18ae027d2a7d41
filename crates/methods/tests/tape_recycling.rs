//! Recycled tapes must be a pure performance optimization: training
//! with one arena reset per step has to produce bit-for-bit the same
//! parameters — and therefore the same losses and samples — as
//! allocating a fresh tape for every batch. `TrainConfig::fresh_tapes`
//! exists exactly so this equivalence stays provable.

use tsgb_linalg::Tensor3;
use tsgb_methods::common::{MethodId, TrainConfig};
use tsgb_rand::rngs::SmallRng;
use tsgb_rand::SeedableRng;

fn cfg(fresh_tapes: bool) -> TrainConfig {
    TrainConfig {
        epochs: 5,
        batch: 6,
        hidden: 8,
        latent: 4,
        lr: 2e-3,
        fresh_tapes,
    }
}

fn toy_data() -> Tensor3 {
    Tensor3::from_fn(12, 8, 2, |s, t, f| {
        let phase = s as f64 * 0.37 + f as f64 * 1.1;
        (t as f64 * 0.5 + phase).sin() * 0.6
    })
}

/// Trains `mid` twice from the same seed — once recycling tapes, once
/// with a fresh tape per batch — and demands identical loss histories
/// and identical generated tensors.
fn assert_recycled_matches_fresh(mid: MethodId) {
    let data = toy_data();
    let run = |fresh: bool| -> (Vec<f64>, Tensor3) {
        let mut rng = SmallRng::seed_from_u64(42);
        let mut m = mid.create(8, 2);
        let report = m.fit(&data, &cfg(fresh), &mut rng);
        let out = m.generate(4, &mut rng);
        (report.loss_history, out)
    };
    let (hist_recycled, out_recycled) = run(false);
    let (hist_fresh, out_fresh) = run(true);
    assert_eq!(
        hist_recycled, hist_fresh,
        "{mid:?}: loss history diverged between recycled and fresh tapes"
    );
    assert_eq!(
        out_recycled.as_slice(),
        out_fresh.as_slice(),
        "{mid:?}: generated samples diverged between recycled and fresh tapes"
    );
}

#[test]
fn rgan_recycled_tapes_bit_identical_to_fresh() {
    assert_recycled_matches_fresh(MethodId::Rgan);
}

#[test]
fn timevae_recycled_tapes_bit_identical_to_fresh() {
    assert_recycled_matches_fresh(MethodId::TimeVae);
}

// The same equivalence must hold with plan compilation forced off
// (`TSGB_PLAN=off`): recycled-but-interpreted tapes against fresh
// tapes. Under the default plan-on mode the tests above already pit a
// compiled-plan run (recycled) against an interpreted one (fresh
// tapes never replay), so together the four cover both rows of the
// plan on/off matrix.

#[test]
fn rgan_recycled_tapes_bit_identical_with_plan_disabled() {
    tsgb_nn::with_plan_mode(false, || assert_recycled_matches_fresh(MethodId::Rgan));
}

#[test]
fn timevae_recycled_tapes_bit_identical_with_plan_disabled() {
    tsgb_nn::with_plan_mode(false, || assert_recycled_matches_fresh(MethodId::TimeVae));
}

// COSCI-GAN is the one method that replays a single phase plan across
// several parameter sets: its per-channel discriminator step reuses
// one tape for every channel's generator/discriminator pair.

#[test]
fn cosci_gan_recycled_tapes_bit_identical_to_fresh() {
    assert_recycled_matches_fresh(MethodId::CosciGan);
}

#[test]
fn cosci_gan_recycled_tapes_bit_identical_with_plan_disabled() {
    tsgb_nn::with_plan_mode(false, || assert_recycled_matches_fresh(MethodId::CosciGan));
}

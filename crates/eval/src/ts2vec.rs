//! The representation encoder backing Contextual-FID (M3).
//!
//! The paper uses ts2vec (Franceschi et al.) embeddings; training the
//! full hierarchical-contrastive ts2vec is out of budget here, so the
//! documented substitution is a **GRU sequence autoencoder**: the
//! encoder's last hidden state is the window embedding, trained so a
//! dense decoder can reconstruct the window. Embeddings that blend
//! with local context — the property C-FID scores — are exactly what
//! a reconstruction bottleneck learns; the FID computation on top is
//! unchanged.

use tsgb_rand::rngs::SmallRng;
use tsgb_linalg::{Matrix, Tensor3};
use tsgb_methods::common::minibatch;
use tsgb_nn::layers::{Activation, GruCell, Linear, Mlp};
use tsgb_nn::loss;
use tsgb_nn::params::Params;
use tsgb_nn::tape::Tape;

use crate::model_based::{constant_steps, train_post_hoc};

/// A trained window-embedding model.
pub struct Ts2Vec {
    params: Params,
    cell: GruCell,
    proj: Linear,
    embed_dim: usize,
}

impl Ts2Vec {
    /// Trains an embedding model on the given windows.
    pub fn fit(data: &Tensor3, embed_dim: usize, epochs: usize, rng: &mut SmallRng) -> Ts2Vec {
        let (r, l, n) = data.shape();
        let hidden = (embed_dim * 2).max(8);
        let mut params = Params::new();
        let cell = GruCell::new(&mut params, "t2v.gru", n, hidden, rng);
        let proj = Linear::new(&mut params, "t2v.proj", hidden, embed_dim, rng);
        let decoder = Mlp::new(
            &mut params,
            "t2v.dec",
            &[embed_dim, hidden * 2, l * n],
            Activation::Relu,
            Activation::Sigmoid,
            rng,
        );
        let flat = data.flatten_samples();
        train_post_hoc(&mut params, epochs, rng, |t, b, rng| {
            let idx = minibatch(r, 32, rng);
            let target = flat.select_rows(&idx);
            let xs = constant_steps(t, data, &idx);
            let hs = cell.run(t, b, &xs, idx.len());
            let z_pre = proj.forward(t, b, *hs.last().expect("non-empty"));
            let z = t.tanh(z_pre);
            let rec = decoder.forward(t, b, z);
            loss::mse_mean(t, rec, &target)
        });
        // the decoder only shapes training; embedding never runs it
        Ts2Vec {
            params,
            cell,
            proj,
            embed_dim,
        }
    }

    /// Embeds every window into a `(samples, embed_dim)` matrix.
    pub fn embed(&self, data: &Tensor3) -> Matrix {
        let r = data.samples();
        let idx: Vec<usize> = (0..r).collect();
        let mut t = Tape::new();
        let b = self.params.bind(&mut t);
        let xs = constant_steps(&mut t, data, &idx);
        let hs = self.cell.run(&mut t, &b, &xs, r);
        let z_pre = self
            .proj
            .forward(&mut t, &b, *hs.last().expect("non-empty"));
        let z = t.tanh(z_pre);
        t.value(z).clone()
    }

    /// Embedding dimensionality.
    pub fn embed_dim(&self) -> usize {
        self.embed_dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsgb_linalg::rng::seeded;

    #[test]
    fn embeddings_have_right_shape_and_are_bounded() {
        let mut rng = seeded(1);
        let data = Tensor3::from_fn(20, 8, 2, |s, t, _| 0.5 + 0.4 * ((s + t) as f64 * 0.5).sin());
        let model = Ts2Vec::fit(&data, 6, 10, &mut rng);
        let e = model.embed(&data);
        assert_eq!(e.shape(), (20, 6));
        assert!(e.as_slice().iter().all(|&v| v.abs() <= 1.0));
    }

    #[test]
    fn distinct_patterns_embed_apart() {
        let mut rng = seeded(2);
        // class A: slow sine; class B: fast sine
        let data = Tensor3::from_fn(40, 12, 1, |s, t, _| {
            let freq = if s < 20 { 0.3 } else { 1.5 };
            0.5 + 0.4 * (freq * t as f64).sin()
        });
        let model = Ts2Vec::fit(&data, 4, 200, &mut rng);
        let e = model.embed(&data);
        // centroid distance between classes should dominate the
        // within-class spread
        let centroid = |lo: usize, hi: usize| -> Vec<f64> {
            let mut c = [0.0; 4];
            for s in lo..hi {
                for d in 0..4 {
                    c[d] += e[(s, d)];
                }
            }
            c.iter().map(|v| v / (hi - lo) as f64).collect()
        };
        let ca = centroid(0, 20);
        let cb = centroid(20, 40);
        let between: f64 = ca
            .iter()
            .zip(&cb)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(between > 0.05, "classes should separate: {between}");
    }
}

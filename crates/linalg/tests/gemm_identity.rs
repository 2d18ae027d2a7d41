//! Packed-vs-band bit-identity properties.
//!
//! The packed microkernel GEMM and the direct register tile (which
//! packed mode runs below the packing threshold on AVX-512F) promise
//! *bit-identical* results to the band kernels: every output element
//! is the same strict k-ascending mul-then-add fold, only the traversal
//! order of independent elements changes. These tests drive both modes
//! through [`with_gemm_mode`] over ragged shapes (nothing aligned to
//! the MR/NR/KC tile sizes), all three op variants, warm accumulation,
//! and the 0·NaN edge, comparing raw bits.

use tsgb_linalg::gemm::{with_gemm_mode, GemmMode, KC, MR, NR};
use tsgb_linalg::rng::{seeded, uniform_matrix};
use tsgb_linalg::Matrix;

fn assert_bits_eq(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert!(
            x.to_bits() == y.to_bits(),
            "{what}: element {i} differs: {x:e} vs {y:e}"
        );
    }
}

/// Ragged shapes: deliberately *not* multiples of the register tile
/// (MR×NR) or the k-block (KC), plus exact-tile shapes and
/// single-row/column degenerates. Sizes are chosen so `m*n*k` clears
/// the packed-path threshold (2^19) for most cases — the small ones
/// exercise the dispatch fallthrough instead, which must also agree.
fn ragged_shapes() -> Vec<(usize, usize, usize)> {
    vec![
        // above threshold, nothing tile-aligned
        (97, 103, 61),
        (129, 65, 127),
        (100, 100, 100),
        (MR * 9 + 3, NR * 7 + 5, KC + 17),
        // k crosses multiple KC blocks
        (70, 70, 2 * KC + 9),
        // tall-skinny / short-wide
        (300, 9, 200),
        (9, 300, 200),
        // exact tile multiples
        (MR * 12, NR * 12, 128),
        // below the packed threshold (dispatch falls through to band)
        (13, 7, 5),
        (1, 50, 50),
        (50, 1, 50),
    ]
}

/// Shapes the three ops need: `matmul` is (m,k)x(k,n); `t_matmul`
/// computes aᵀ·b so a is (k,m); `matmul_t` computes a·bᵀ so b is
/// (n,k).
fn operands(m: usize, n: usize, k: usize, seed: u64) -> (Matrix, Matrix, Matrix, Matrix) {
    let mut rng = seeded(seed);
    let a = uniform_matrix(m, k, -2.0, 2.0, &mut rng);
    let b = uniform_matrix(k, n, -2.0, 2.0, &mut rng);
    let at = uniform_matrix(k, m, -2.0, 2.0, &mut rng);
    let bt = uniform_matrix(n, k, -2.0, 2.0, &mut rng);
    (a, b, at, bt)
}

#[test]
fn packed_matches_band_bitwise_over_ragged_shapes() {
    for (m, n, k) in ragged_shapes() {
        let (a, b, at, bt) = operands(m, n, k, (m * 31 + n * 7 + k) as u64);
        let packed = with_gemm_mode(GemmMode::Packed, || {
            (a.matmul(&b), at.t_matmul(&b), a.matmul_t(&bt))
        });
        let band = with_gemm_mode(GemmMode::Band, || {
            (a.matmul(&b), at.t_matmul(&b), a.matmul_t(&bt))
        });
        assert_bits_eq(&packed.0, &band.0, &format!("matmul {m}x{n}x{k}"));
        assert_bits_eq(&packed.1, &band.1, &format!("t_matmul {m}x{n}x{k}"));
        assert_bits_eq(&packed.2, &band.2, &format!("matmul_t {m}x{n}x{k}"));
    }
}

#[test]
fn packed_acc_into_matches_band_on_warm_output() {
    for (m, n, k) in [(97usize, 103, 61), (70, 70, 2 * KC + 9), (13, 7, 5)] {
        let (a, b, at, bt) = operands(m, n, k, 9000 + k as u64);
        let mut warm_rng = seeded(4242);
        let warm = uniform_matrix(m, n, -1.0, 1.0, &mut warm_rng);

        let run = |mode: GemmMode| {
            with_gemm_mode(mode, || {
                let mut c0 = warm.clone();
                a.matmul_acc_into(&b, &mut c0);
                let mut c1 = warm.clone();
                at.t_matmul_acc_into(&b, &mut c1);
                let mut c2 = warm.clone();
                a.matmul_t_acc_into(&bt, &mut c2);
                (c0, c1, c2)
            })
        };
        let packed = run(GemmMode::Packed);
        let band = run(GemmMode::Band);
        assert_bits_eq(&packed.0, &band.0, &format!("matmul_acc {m}x{n}x{k}"));
        assert_bits_eq(&packed.1, &band.1, &format!("t_matmul_acc {m}x{n}x{k}"));
        assert_bits_eq(&packed.2, &band.2, &format!("matmul_t_acc {m}x{n}x{k}"));
    }
}

#[test]
fn packed_parallel_matches_serial_bitwise() {
    let (m, n, k) = (150usize, 140, 130);
    let (a, b, _, _) = operands(m, n, k, 77);
    let serial = with_gemm_mode(GemmMode::Packed, || {
        tsgb_par::with_threads(1, || a.matmul(&b))
    });
    let parallel = with_gemm_mode(GemmMode::Packed, || {
        tsgb_par::with_threads(4, || a.matmul(&b))
    });
    assert_bits_eq(&serial, &parallel, "packed serial vs 4 threads");
}

/// The packed path must not skip zero terms: `0 * NaN` is NaN and the
/// whole k-fold containing it must come out NaN, exactly as the band
/// kernels produce. A kernel that branches on zero (or multiplies
/// padding into the answer) breaks this.
#[test]
fn packed_propagates_nan_through_zero_products() {
    let (m, n, k) = (96usize, 96, 64);
    // a has a zero column; b has NaN in the matching row, so every
    // C[i][j] fold contains exactly one 0*NaN term.
    let a = Matrix::from_fn(m, k, |_, c| if c == 37 { 0.0 } else { 1.0 });
    let b = Matrix::from_fn(k, n, |r, _| if r == 37 { f64::NAN } else { 1.0 });
    let packed = with_gemm_mode(GemmMode::Packed, || a.matmul(&b));
    let band = with_gemm_mode(GemmMode::Band, || a.matmul(&b));
    assert!(
        packed.as_slice().iter().all(|v| v.is_nan()),
        "packed path skipped a 0*NaN term"
    );
    assert!(band.as_slice().iter().all(|v| v.is_nan()));
    // NaN payload bits must match too
    for (p, q) in packed.as_slice().iter().zip(band.as_slice()) {
        assert_eq!(p.to_bits(), q.to_bits());
    }
}

/// Sub-threshold shapes: packed mode runs these on the direct register
/// tile (band where the CPU lacks AVX-512F). Rows and columns straddle
/// the 8-wide tile (1, 7, 8, 9, 17), `k = 1` leaves a single term per
/// chain, and the recurrent / post-hoc shapes of the paper workloads
/// ride along.
fn small_shapes() -> Vec<(usize, usize, usize)> {
    let mut v = Vec::new();
    for m in [1usize, 7, 8, 9, 17] {
        for n in [1usize, 7, 8, 9, 17] {
            for k in [1usize, 5, 16] {
                v.push((m, n, k));
            }
        }
    }
    v.extend([
        (32, 8, 28),
        (48, 12, 28),
        (21, 16, 8),
        (21, 16, 16),
        (21, 1, 16),
        (16, 32, 32),
        (64, 64, 64),
    ]);
    v
}

#[test]
fn direct_matches_band_bitwise_below_threshold() {
    for (m, n, k) in small_shapes() {
        assert!(
            m * n * k < 1 << 19,
            "{m}x{n}x{k} must stay below the packed threshold"
        );
        let (a, b, at, bt) = operands(m, n, k, (m * 131 + n * 17 + k) as u64);
        let mut warm_rng = seeded((m * n + k) as u64);
        let warm = uniform_matrix(m, n, -1.0, 1.0, &mut warm_rng);
        let run = |mode: GemmMode| {
            with_gemm_mode(mode, || {
                let fresh = (a.matmul(&b), at.t_matmul(&b), a.matmul_t(&bt));
                let mut c0 = warm.clone();
                a.matmul_acc_into(&b, &mut c0);
                let mut c1 = warm.clone();
                at.t_matmul_acc_into(&b, &mut c1);
                let mut c2 = warm.clone();
                a.matmul_t_acc_into(&bt, &mut c2);
                (fresh, (c0, c1, c2))
            })
        };
        let (direct, direct_warm) = run(GemmMode::Packed);
        let (band, band_warm) = run(GemmMode::Band);
        let tag = format!("{m}x{n}x{k}");
        assert_bits_eq(&direct.0, &band.0, &format!("matmul {tag}"));
        assert_bits_eq(&direct.1, &band.1, &format!("t_matmul {tag}"));
        assert_bits_eq(&direct.2, &band.2, &format!("matmul_t {tag}"));
        assert_bits_eq(&direct_warm.0, &band_warm.0, &format!("matmul_acc {tag}"));
        assert_bits_eq(&direct_warm.1, &band_warm.1, &format!("t_matmul_acc {tag}"));
        assert_bits_eq(&direct_warm.2, &band_warm.2, &format!("matmul_t_acc {tag}"));
    }
}

/// The direct tile's masked lanes load `0.0` for columns past `n`;
/// real lanes must still add every term, so a `0 * NaN` term turns
/// its whole chain NaN exactly as on the band path — for all three ops
/// and at ragged sizes on both axes.
#[test]
fn direct_propagates_nan_through_zero_products() {
    for (m, n, k) in [(9usize, 17, 6), (7, 1, 3), (17, 9, 1)] {
        let hole = k / 2;
        let a = Matrix::from_fn(m, k, |_, c| if c == hole { 0.0 } else { 1.0 });
        let at = a.transpose();
        let b = Matrix::from_fn(k, n, |r, _| if r == hole { f64::NAN } else { 1.0 });
        let bt = b.transpose();
        let run = |mode: GemmMode| {
            with_gemm_mode(mode, || (a.matmul(&b), at.t_matmul(&b), a.matmul_t(&bt)))
        };
        let direct = run(GemmMode::Packed);
        let band = run(GemmMode::Band);
        for (d, q, what) in [
            (&direct.0, &band.0, "matmul"),
            (&direct.1, &band.1, "t_matmul"),
            (&direct.2, &band.2, "matmul_t"),
        ] {
            assert!(
                d.as_slice().iter().all(|v| v.is_nan()),
                "{what} {m}x{n}x{k}: direct path skipped a 0*NaN term"
            );
            assert_bits_eq(d, q, &format!("{what} NaN {m}x{n}x{k}"));
        }
    }
}

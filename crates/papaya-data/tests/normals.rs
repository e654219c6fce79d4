//! `papaya_data::stats::standard_normals_f32` against the scalar Box–Muller
//! transform over 2^27 drawn uniforms, in release.
//!
//! The kernel's output must equal `standard_normal_pair(u1, u2).0 as f32`
//! bit for bit, and the candidate it rounds must stay far inside its error
//! bound: the largest `|r − reference| / |r|` seen is asserted to be at
//! least 2^8 below `BOX_MULLER_RELATIVE_ERROR`.  The sweep prints the share
//! of elements the kernel recomputed with the scalar transform:
//! `cargo test --release -p papaya-data --test normals -- --nocapture`.

use papaya_data::stats::{
    box_muller_candidate, standard_normal_pair, standard_normals_f32, BOX_MULLER_RELATIVE_ERROR,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
#[cfg_attr(debug_assertions, ignore = "2^27 draws: run with --release")]
fn batched_normals_match_the_scalar_transform_over_2_pow_27_draws() {
    const BATCH: usize = 4096;
    const BATCHES: usize = 1 << 15;
    let mut rng = StdRng::seed_from_u64(27);
    let (mut u1, mut u2) = (vec![0.0f64; BATCH], vec![0.0f64; BATCH]);
    let mut out = vec![0.0f32; BATCH];
    let (mut recomputed, mut worst) = (0u64, (0.0f64, 0.0f64, 0.0f64));
    for _ in 0..BATCHES {
        // The surrogate's draws, in its order.
        for (a, b) in u1.iter_mut().zip(&mut u2) {
            *a = rng.gen_range(f64::EPSILON..1.0);
            *b = rng.gen_range(0.0..1.0);
        }
        standard_normals_f32(&u1, &u2, &mut out);
        for ((&a, &b), &got) in u1.iter().zip(&u2).zip(&out) {
            let reference = standard_normal_pair(a, b).0;
            assert_eq!(
                got.to_bits(),
                (reference as f32).to_bits(),
                "u1 = {a:e}, u2 = {b:e}"
            );
            let r = box_muller_candidate(a, b);
            let gap = (r - reference).abs() / r.abs();
            if gap > worst.0 {
                worst = (gap, a, b);
            }
            let e = r.abs() * BOX_MULLER_RELATIVE_ERROR;
            if (r - e) as f32 != (r + e) as f32 {
                recomputed += 1;
            }
        }
    }
    let draws = (BATCH * BATCHES) as f64;
    let (gap, a, b) = worst;
    println!(
        "{draws} draws: 0 mismatches, {recomputed} recomputed ({:.4} %), largest |r - reference| / |r| = 2^{:.1} at u1 = {a:e}, u2 = {b:e}, bound 2^{:.1}",
        100.0 * recomputed as f64 / draws,
        gap.log2(),
        BOX_MULLER_RELATIVE_ERROR.log2()
    );
    assert!(
        gap <= BOX_MULLER_RELATIVE_ERROR / 256.0,
        "largest gap 2^{:.1} at u1 = {a:e}, u2 = {b:e} is within 2^8 of the bound",
        gap.log2()
    );
}

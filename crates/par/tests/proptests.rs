//! Property tests for the parallel substrates: partition invariants under
//! arbitrary weights and rank counts, cost-model sanity, machine
//! collectives against scalar oracles.
//!
//! Cases are generated with the in-repo [`ablock_testkit`] seeded driver;
//! a failing case reports its seed so it can be replayed exactly.

use ablock_core::key::BlockKey;
use ablock_core::partition::Partitioner;
use ablock_core::sfc::Curve;
use ablock_par::{imbalance, Machine};
use ablock_testkit::cases;

fn keys_2d(n: i64) -> Vec<BlockKey<2>> {
    (0..n)
        .flat_map(|x| (0..n).map(move |y| BlockKey::new(1, [x, y])))
        .collect()
}

/// Every partitioner produces a valid assignment: in-range ranks, every
/// block assigned, and (for nranks <= blocks with uniform weights)
/// no empty rank for the SFC policies.
#[test]
fn partitions_are_valid() {
    cases(24, 0xBA1A_0001, |_, rng| {
        let n = rng.i64_in(2, 8);
        let nranks = rng.usize_in(1, 12);
        let heavy = rng.coin();
        let keys = keys_2d(n);
        let mut weights = vec![1.0; keys.len()];
        if heavy {
            weights[0] = 10.0;
        }
        for part in [
            Partitioner::sfc(Curve::Morton),
            Partitioner::sfc(Curve::Hilbert),
            Partitioner::round_robin(),
            Partitioner::greedy(),
        ] {
            let a = part.assign_keys(&keys, &weights, nranks);
            assert_eq!(a.len(), keys.len());
            assert!(a.iter().all(|&r| r < nranks), "{part:?}");
            if nranks <= keys.len() && !heavy {
                let mut used = vec![false; nranks];
                for &r in &a {
                    used[r] = true;
                }
                assert!(used.iter().all(|&u| u), "{part:?} left a rank empty");
            }
        }
    });
}

/// Imbalance is always >= 1, and greedy (longest-processing-time)
/// satisfies the classic LPT guarantee: max load <= 4/3 of the
/// optimal lower bound max(mean, heaviest block).
#[test]
fn greedy_meets_lpt_bound() {
    cases(24, 0xBA1A_0002, |_, rng| {
        let n = rng.i64_in(2, 7);
        let nranks = rng.usize_in(2, 8);
        let seed = rng.next_u64();
        let keys = keys_2d(n);
        let mut state = seed | 1;
        let weights: Vec<f64> = keys
            .iter()
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                1.0 + ((state >> 33) % 100) as f64 / 25.0
            })
            .collect();
        let g = Partitioner::greedy().assign_keys(&keys, &weights, nranks);
        let ig = imbalance(&weights, &g, nranks);
        assert!(ig >= 1.0 - 1e-12);
        let total: f64 = weights.iter().sum();
        let mean = total / nranks as f64;
        let wmax = weights.iter().cloned().fold(0.0, f64::max);
        let opt_lb = mean.max(wmax);
        let mut load = vec![0.0f64; nranks];
        for (w, &r) in weights.iter().zip(&g) {
            load[r] += w;
        }
        let max_load = load.iter().cloned().fold(0.0, f64::max);
        assert!(
            max_load <= 4.0 / 3.0 * opt_lb + 1e-9,
            "LPT bound violated: {max_load} > 4/3 * {opt_lb}"
        );
    });
}

/// SFC chunks are contiguous along the curve for any weights.
#[test]
fn sfc_chunks_contiguous() {
    cases(24, 0xBA1A_0003, |_, rng| {
        use ablock_core::sfc::{curve_index, required_bits};
        let n = rng.i64_in(2, 7);
        let nranks = rng.usize_in(1, 10);
        let seed = rng.next_u64();
        let keys = keys_2d(n);
        let mut state = seed | 1;
        let weights: Vec<f64> = keys
            .iter()
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                0.5 + ((state >> 33) % 10) as f64
            })
            .collect();
        let a = Partitioner::sfc(Curve::Morton).assign_keys(&keys, &weights, nranks);
        let bits = required_bits(n, 1);
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_by_key(|&i| curve_index(&keys[i], 1, bits, Curve::Morton));
        let ranks: Vec<usize> = order.iter().map(|&i| a[i]).collect();
        assert!(ranks.windows(2).all(|w| w[0] <= w[1]), "{ranks:?}");
    });
}

/// Machine collectives equal their scalar oracles for any rank count.
#[test]
fn collectives_match_oracles() {
    cases(12, 0xBA1A_0004, |_, rng| {
        let nranks = rng.usize_in(1, 9);
        let base = rng.i64_in(-100, 100);
        let outs = Machine::run(nranks, move |c| {
            let x = (base + c.rank() as i64) as f64;
            (c.allreduce_sum(x), c.allreduce_min(x), c.allreduce_max(x))
        })
        .unwrap();
        let xs: Vec<f64> = (0..nranks).map(|r| (base + r as i64) as f64).collect();
        let sum: f64 = xs.iter().sum();
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for (s, lo, hi) in outs {
            assert!((s - sum).abs() < 1e-9);
            assert_eq!(lo, min);
            assert_eq!(hi, max);
        }
    });
}

/// allgatherv reassembles every rank's payload everywhere.
#[test]
fn allgatherv_is_complete() {
    cases(12, 0xBA1A_0005, |_, rng| {
        let nranks = rng.usize_in(1, 7);
        let lens: Vec<usize> = (0..8).map(|_| rng.usize_below(5)).collect();
        let lens = std::sync::Arc::new(lens);
        let l2 = lens.clone();
        let outs = Machine::run(nranks, move |c| {
            let n = l2[c.rank() % l2.len()];
            let mine: Vec<f64> = (0..n).map(|i| (c.rank() * 100 + i) as f64).collect();
            c.allgatherv(mine)
        })
        .unwrap();
        for parts in outs {
            assert_eq!(parts.len(), nranks);
            for (r, part) in parts.iter().enumerate() {
                let n = lens[r % lens.len()];
                assert_eq!(part.len(), n);
                for (i, &v) in part.iter().enumerate() {
                    assert_eq!(v, (r * 100 + i) as f64);
                }
            }
        }
    });
}

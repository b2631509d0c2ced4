//! Row/scalar equivalence of the `Physics` row methods.
//!
//! The kernels run the row-batched forms (`flux_speed_rows`,
//! `max_speed_rows`, `cons_to_prim_rows`, `prim_to_cons_rows`,
//! `floor_rows`) while masked walls, HLL and the reference paths run the
//! scalar methods, and the trait contract ("Row-batched forms" in
//! `physics.rs`) requires the two to agree lane by lane, bit for bit.
//! These properties check that for `Euler<1..=3>` and `IdealMhd` on random
//! states — including non-positive densities, negative pressures and
//! states below the floors — at every lane count in `1..=ROW_CHUNK`, every
//! direction, and both the `ROW_CHUNK` slab stride and padded plane
//! strides. Lanes past `lanes` and plane padding must stay untouched.

use ablock_solver::physics::{Physics, ROW_CHUNK};
use ablock_solver::{Euler, IdealMhd};
use ablock_testkit::{cases, Rng};

/// Marks slab slots a row method must not write.
const SENTINEL: f64 = -12345.678;

/// Bitwise equality. Two NaNs also count as equal: Rust leaves NaN
/// payloads unspecified, and ρ ≤ 0 lanes produce NaN fluxes.
fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// A conserved state of one of five kinds: admissible; energy below the
/// kinetic (and magnetic) part, so the pressure is negative; density
/// around the floor; density zero or negative; or raw noise.
fn random_state<P: Physics>(phys: &P, rng: &mut Rng) -> Vec<f64> {
    let n = phys.nvar();
    let mut w = vec![0.0; n];
    w[0] = rng.f64_in(0.05, 5.0);
    for x in &mut w[1..n - 1] {
        *x = rng.f64_in(-3.0, 3.0);
    }
    w[n - 1] = rng.f64_in(0.01, 20.0);
    let mut u = vec![0.0; n];
    phys.prim_to_cons(&w, &mut u);
    match rng.usize_below(10) {
        0 => u[n - 1] *= rng.f64_in(-1.0, 0.5),
        1 => u[0] = rng.f64_in(0.0, 2e-12),
        2 => {
            let neg = -rng.f64_in(0.0, 1.0);
            u[0] = *rng.choose(&[0.0, -0.0, neg]);
        }
        3 => u.iter_mut().for_each(|x| *x = rng.f64_in(-5.0, 5.0)),
        _ => {}
    }
    u
}

/// `ROW_CHUNK` (the kernels' slab stride) or a padded plane stride.
fn random_stride(rng: &mut Rng) -> usize {
    if rng.coin() {
        ROW_CHUNK
    } else {
        ROW_CHUNK + rng.usize_in(1, 40)
    }
}

/// Variable-major slab of `states` with plane stride `stride`; slots past
/// the states hold the sentinel.
fn slab(states: &[Vec<f64>], n: usize, stride: usize) -> Vec<f64> {
    let mut s = vec![SENTINEL; n * stride];
    for (k, u) in states.iter().enumerate() {
        for v in 0..n {
            s[v * stride + k] = u[v];
        }
    }
    s
}

/// Every slot of lane `k >= lanes` (or of the plane padding) is still the
/// sentinel.
fn assert_untouched(out: &[f64], stride: usize, lanes: usize, what: &str) {
    for (i, x) in out.iter().enumerate() {
        if i % stride >= lanes {
            assert_eq!(
                x.to_bits(),
                SENTINEL.to_bits(),
                "{what} wrote slot {i} past its lanes"
            );
        }
    }
}

fn check_rows<P: Physics>(phys: &P, dirs: usize, seed: u64) {
    cases(96, seed, |_, rng| {
        let n = phys.nvar();
        let lanes = rng.usize_in(1, ROW_CHUNK + 1);
        let (si, so) = (random_stride(rng), random_stride(rng));
        let states: Vec<Vec<f64>> = (0..lanes).map(|_| random_state(phys, rng)).collect();
        let u = slab(&states, n, si);
        let mut fs = vec![0.0; n];

        for dir in 0..dirs {
            let mut f = vec![SENTINEL; n * so];
            let mut speed = vec![SENTINEL; ROW_CHUNK];
            phys.flux_speed_rows(&u, si, dir, &mut f, so, &mut speed, lanes);
            let mut ms = vec![SENTINEL; ROW_CHUNK];
            phys.max_speed_rows(&u, si, dir, &mut ms, lanes);
            for (k, s) in states.iter().enumerate() {
                phys.flux(s, dir, &mut fs);
                for v in 0..n {
                    assert!(
                        same(f[v * so + k], fs[v]),
                        "flux_speed_rows dir {dir} lane {k} var {v}: {} vs scalar {} (state {s:?})",
                        f[v * so + k],
                        fs[v]
                    );
                }
                let c = phys.max_speed(s, dir);
                assert!(
                    same(speed[k], c),
                    "flux_speed_rows dir {dir} lane {k} speed {} vs {c}",
                    speed[k]
                );
                assert!(
                    same(ms[k], c),
                    "max_speed_rows dir {dir} lane {k}: {} vs {c}",
                    ms[k]
                );
            }
            assert_untouched(&f, so, lanes, "flux_speed_rows");
            assert_untouched(&speed, ROW_CHUNK, lanes, "flux_speed_rows speed");
            assert_untouched(&ms, ROW_CHUNK, lanes, "max_speed_rows");
        }

        // primitives: ρ ≤ 0 lanes keep whatever the slab held
        let mut w = vec![SENTINEL; n * so];
        phys.cons_to_prim_rows(&u, si, &mut w, so, lanes);
        for (k, s) in states.iter().enumerate() {
            if s[0] <= 0.0 {
                for v in 0..n {
                    assert_eq!(
                        w[v * so + k].to_bits(),
                        SENTINEL.to_bits(),
                        "ρ ≤ 0 lane {k} written"
                    );
                }
                continue;
            }
            phys.cons_to_prim(s, &mut fs);
            for v in 0..n {
                assert!(
                    same(w[v * so + k], fs[v]),
                    "cons_to_prim_rows lane {k} var {v}"
                );
            }
        }
        assert_untouched(&w, so, lanes, "cons_to_prim_rows");

        // back to conserved, from arbitrary primitive slabs
        let prims: Vec<Vec<f64>> = (0..lanes).map(|_| random_state(phys, rng)).collect();
        let wp = slab(&prims, n, si);
        let mut uc = vec![SENTINEL; n * so];
        phys.prim_to_cons_rows(&wp, si, &mut uc, so, lanes);
        for (k, p) in prims.iter().enumerate() {
            phys.prim_to_cons(p, &mut fs);
            for v in 0..n {
                assert!(
                    same(uc[v * so + k], fs[v]),
                    "prim_to_cons_rows lane {k} var {v}"
                );
            }
        }
        assert_untouched(&uc, so, lanes, "prim_to_cons_rows");

        // floors, in place: clamped lanes match the scalar clamp, the rest
        // keep their bits, and the count agrees
        let mut fl = u.clone();
        let count = phys.floor_rows(&mut fl, si, lanes);
        let mut want = 0;
        for (k, s) in states.iter().enumerate() {
            let mut c = s.clone();
            if phys.apply_floors(&mut c) {
                want += 1;
            }
            for v in 0..n {
                assert!(same(fl[v * si + k], c[v]), "floor_rows lane {k} var {v}");
            }
        }
        assert_eq!(count, want, "floor_rows clamp count");
        assert_untouched(&fl, si, lanes, "floor_rows");
    });
}

#[test]
fn euler_1d_rows_match_scalar() {
    check_rows(&Euler::<1>::new(1.4), 1, 0x1e01);
}

#[test]
fn euler_2d_rows_match_scalar() {
    check_rows(&Euler::<2>::new(1.4), 2, 0x1e02);
}

#[test]
fn euler_3d_rows_match_scalar() {
    check_rows(&Euler::<3>::new(5.0 / 3.0), 3, 0x1e03);
}

#[test]
fn mhd_rows_match_scalar() {
    check_rows(&IdealMhd::new(5.0 / 3.0), 3, 0x3d01);
}

/// The random states reach every branch the properties are meant to
/// cover: floors fire, pressures go negative, densities go non-positive.
#[test]
fn random_states_cover_the_edge_cases() {
    let phys = IdealMhd::new(5.0 / 3.0);
    let mut rng = Rng::new(7);
    let (mut floored, mut neg_p, mut non_pos) = (0, 0, 0);
    for _ in 0..1000 {
        let mut u = random_state(&phys, &mut rng);
        non_pos += usize::from(u[0] <= 0.0);
        neg_p += usize::from(u[0] > 0.0 && phys.pressure(&u) < 0.0);
        floored += usize::from(phys.apply_floors(&mut u));
    }
    assert!(
        floored > 50 && neg_p > 20 && non_pos > 20,
        "{floored} {neg_p} {non_pos}"
    );
}

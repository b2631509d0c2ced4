//! Approximate Riemann solvers.
//!
//! Two classics with very different dissipation/robustness trade-offs:
//!
//! * **Rusanov** (local Lax–Friedrichs) — maximally simple and robust; the
//!   default for the MHD runs (BATS-R-US shipped exactly this option for
//!   hard solar-wind states);
//! * **HLL** — two-wave solver; noticeably sharper on contacts moving with
//!   the flow, still positivity-friendly.
//!
//! Both operate on *conserved* interface states produced by the
//! reconstruction layer.

use crate::physics::{Physics, MAX_VARS, ROW_CHUNK};

/// Which approximate Riemann solver the kernel uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Riemann {
    /// Local Lax–Friedrichs.
    Rusanov,
    /// Harten–Lax–van Leer two-wave solver.
    Hll,
}

/// Numerical interface flux along `dir` from conserved left/right states.
pub fn numerical_flux<P: Physics>(
    phys: &P,
    riemann: Riemann,
    ul: &[f64],
    ur: &[f64],
    dir: usize,
    out: &mut [f64],
) {
    let n = phys.nvar();
    let mut fl = [0.0; MAX_VARS];
    let mut fr = [0.0; MAX_VARS];
    phys.flux(ul, dir, &mut fl[..n]);
    phys.flux(ur, dir, &mut fr[..n]);
    match riemann {
        Riemann::Rusanov => {
            let s = phys.max_speed(ul, dir).max(phys.max_speed(ur, dir));
            for v in 0..n {
                out[v] = 0.5 * (fl[v] + fr[v]) - 0.5 * s * (ur[v] - ul[v]);
            }
        }
        Riemann::Hll => {
            let (ll, lh) = phys.signal_speeds(ul, dir);
            let (rl, rh) = phys.signal_speeds(ur, dir);
            let sl = ll.min(rl).min(0.0);
            let sr = lh.max(rh).max(0.0);
            if sl >= 0.0 {
                out[..n].copy_from_slice(&fl[..n]);
            } else if sr <= 0.0 {
                out[..n].copy_from_slice(&fr[..n]);
            } else {
                let inv = 1.0 / (sr - sl);
                for v in 0..n {
                    out[v] = (sr * fl[v] - sl * fr[v] + sl * sr * (ur[v] - ul[v])) * inv;
                }
            }
        }
    }
}

/// Length of the caller-owned scratch [`numerical_flux_rows`] borrows:
/// both sides' physical fluxes (variable-major, stride [`ROW_CHUNK`]) and
/// signal speeds.
pub const FLUX_ROW_SCRATCH: usize = 2 * (MAX_VARS + 1) * ROW_CHUNK;

/// Row-batched [`numerical_flux`] over at most [`ROW_CHUNK`] interfaces.
/// `ul`, `ur` and `out` are variable-major slabs sharing stride `s`
/// (variable `v` of lane `k` at `[v * s + k]`). `scratch` holds at least
/// [`FLUX_ROW_SCRATCH`] values; the row writes every lane of it before
/// reading it, so callers keep one slab and never clear it. Rusanov runs
/// as stride-1 elementwise loops over pre-cut planes; HLL gathers each
/// lane through the scalar path (its three-way upwind branch doesn't
/// row-batch). Both paths are bitwise identical to calling
/// [`numerical_flux`] once per lane.
#[allow(clippy::too_many_arguments)]
pub fn numerical_flux_rows<P: Physics>(
    phys: &P,
    riemann: Riemann,
    ul: &[f64],
    ur: &[f64],
    dir: usize,
    out: &mut [f64],
    s: usize,
    lanes: usize,
    scratch: &mut [f64],
) {
    debug_assert!(lanes <= ROW_CHUNK);
    let n = phys.nvar();
    match riemann {
        Riemann::Rusanov => {
            let (fl, rest) = scratch.split_at_mut(MAX_VARS * ROW_CHUNK);
            let (fr, rest) = rest.split_at_mut(MAX_VARS * ROW_CHUNK);
            let (sl, sr) = rest.split_at_mut(ROW_CHUNK);
            phys.flux_speed_rows(ul, s, dir, fl, ROW_CHUNK, sl, lanes);
            phys.flux_speed_rows(ur, s, dir, fr, ROW_CHUNK, sr, lanes);
            // the interface speed, once per lane
            let (a, sr) = (&mut sl[..lanes], &sr[..lanes]);
            for k in 0..lanes {
                a[k] = a[k].max(sr[k]);
            }
            for v in 0..n {
                let flv = &fl[v * ROW_CHUNK..][..lanes];
                let frv = &fr[v * ROW_CHUNK..][..lanes];
                let ulv = &ul[v * s..][..lanes];
                let urv = &ur[v * s..][..lanes];
                let ov = &mut out[v * s..][..lanes];
                for k in 0..lanes {
                    ov[k] = 0.5 * (flv[k] + frv[k]) - 0.5 * a[k] * (urv[k] - ulv[k]);
                }
            }
        }
        Riemann::Hll => {
            let mut ulc = [0.0; MAX_VARS];
            let mut urc = [0.0; MAX_VARS];
            let mut fc = [0.0; MAX_VARS];
            for k in 0..lanes {
                for v in 0..n {
                    ulc[v] = ul[v * s + k];
                    urc[v] = ur[v * s + k];
                }
                numerical_flux(phys, riemann, &ulc[..n], &urc[..n], dir, &mut fc[..n]);
                for v in 0..n {
                    out[v * s + k] = fc[v];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::euler::Euler;

    fn cons(e: &Euler<1>, rho: f64, v: f64, p: f64) -> [f64; 3] {
        let mut u = [0.0; 3];
        e.prim_to_cons(&[rho, v, p], &mut u);
        u
    }

    #[test]
    fn consistency_equal_states() {
        // F(u, u) = F(u) for any consistent numerical flux.
        let e = Euler::<1>::new(1.4);
        let u = cons(&e, 1.3, 0.4, 0.9);
        let mut exact = [0.0; 3];
        e.flux(&u, 0, &mut exact);
        for r in [Riemann::Rusanov, Riemann::Hll] {
            let mut f = [0.0; 3];
            numerical_flux(&e, r, &u, &u, 0, &mut f);
            for v in 0..3 {
                assert!((f[v] - exact[v]).abs() < 1e-13, "{r:?} var {v}");
            }
        }
    }

    #[test]
    fn rusanov_adds_dissipation_proportional_to_jump() {
        let e = Euler::<1>::new(1.4);
        let ul = cons(&e, 1.0, 0.0, 1.0);
        let ur = cons(&e, 0.5, 0.0, 1.0);
        let mut f = [0.0; 3];
        numerical_flux(&e, Riemann::Rusanov, &ul, &ur, 0, &mut f);
        // central average of mass flux is 0; dissipation pushes mass
        // rightward (toward low density): f_rho = -0.5 s (rho_r - rho_l) > 0
        assert!(f[0] > 0.0);
    }

    #[test]
    fn hll_upwinds_supersonic_flow() {
        // Supersonic rightward flow: HLL must return the pure left flux.
        let e = Euler::<1>::new(1.4);
        let ul = cons(&e, 1.0, 5.0, 1.0);
        let ur = cons(&e, 0.3, 5.0, 0.4);
        let mut f = [0.0; 3];
        numerical_flux(&e, Riemann::Hll, &ul, &ur, 0, &mut f);
        let mut exact = [0.0; 3];
        e.flux(&ul, 0, &mut exact);
        for v in 0..3 {
            assert!((f[v] - exact[v]).abs() < 1e-13);
        }
        // and the mirrored case
        let ul2 = cons(&e, 0.3, -5.0, 0.4);
        let ur2 = cons(&e, 1.0, -5.0, 1.0);
        numerical_flux(&e, Riemann::Hll, &ul2, &ur2, 0, &mut f);
        e.flux(&ur2, 0, &mut exact);
        for v in 0..3 {
            assert!((f[v] - exact[v]).abs() < 1e-13);
        }
    }

    #[test]
    fn hll_less_dissipative_than_rusanov_on_contact() {
        // pure contact: velocity/pressure equal, density jump
        let e = Euler::<1>::new(1.4);
        let ul = cons(&e, 1.0, 0.1, 1.0);
        let ur = cons(&e, 0.125, 0.1, 1.0);
        let mut fr_ = [0.0; 3];
        let mut fh = [0.0; 3];
        numerical_flux(&e, Riemann::Rusanov, &ul, &ur, 0, &mut fr_);
        numerical_flux(&e, Riemann::Hll, &ul, &ur, 0, &mut fh);
        // exact contact mass flux = rho*u upwinded; compare deviation from
        // the upwind (left) physical flux
        let mut exact = [0.0; 3];
        e.flux(&ul, 0, &mut exact);
        let dev_r = (fr_[0] - exact[0]).abs();
        let dev_h = (fh[0] - exact[0]).abs();
        assert!(dev_h < dev_r, "HLL {dev_h} should beat Rusanov {dev_r}");
    }

    #[test]
    fn mhd_flux_consistency() {
        use crate::mhd::IdealMhd;
        let m = IdealMhd::new(5.0 / 3.0);
        let w = [1.0, 0.2, -0.1, 0.3, 0.8, -0.6, 0.2, 0.95];
        let mut u = [0.0; 8];
        m.prim_to_cons(&w, &mut u);
        let mut exact = [0.0; 8];
        let mut f = [0.0; 8];
        for dir in 0..3 {
            m.flux(&u, dir, &mut exact);
            for r in [Riemann::Rusanov, Riemann::Hll] {
                numerical_flux(&m, r, &u, &u, dir, &mut f);
                for v in 0..8 {
                    assert!((f[v] - exact[v]).abs() < 1e-12, "{r:?} dir {dir} var {v}");
                }
            }
        }
    }
}

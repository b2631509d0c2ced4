//! Ideal magnetohydrodynamics — the paper's production workload.
//!
//! Conserved variables (always 8, even in 1-D/2-D domains, following the
//! authors' BATS-R-US convention): `[ρ, ρu, ρv, ρw, Bx, By, Bz, E]`;
//! primitives `[ρ, u, v, w, Bx, By, Bz, p]`. Total energy includes the
//! magnetic term: `E = p/(γ-1) + ½ρ|u|² + ½|B|²`.
//!
//! The non-zero divergence of B that creeps into multi-dimensional
//! simulations is controlled with the Powell 8-wave source term
//! `S = −(∇·B) (0, B, u, u·B)` (Powell et al.), which the kernels add when
//! [`crate::physics::Physics::powell_source`] is true — the same approach
//! the paper's group used for the solar-wind runs.

use crate::physics::{row_planes, row_planes_mut, Physics};

/// Index of density.
pub const IRHO: usize = 0;
/// Index of x-momentum (y, z follow).
pub const IMX: usize = 1;
/// Index of Bx (By, Bz follow).
pub const IBX: usize = 4;
/// Index of total energy.
pub const IE: usize = 7;

/// One conserved (or primitive) state as a value.
type State = [f64; 8];

#[inline(always)]
fn state(u: &[f64]) -> State {
    u[..8].try_into().expect("MHD states have 8 variables")
}

/// Kinetic and magnetic energy densities of a conserved state.
#[inline(always)]
fn kinetic_magnetic(u: State) -> (f64, f64) {
    let ke = 0.5 * (u[IMX] * u[IMX] + u[IMX + 1] * u[IMX + 1] + u[IMX + 2] * u[IMX + 2]) / u[IRHO];
    let me = 0.5 * (u[IBX] * u[IBX] + u[IBX + 1] * u[IBX + 1] + u[IBX + 2] * u[IBX + 2]);
    (ke, me)
}

/// Lane `k` of eight pre-cut variable planes.
#[inline(always)]
fn lane(planes: &[&[f64]; 8], k: usize) -> State {
    std::array::from_fn(|v| planes[v][k])
}

/// Ideal MHD with a γ-law equation of state.
#[derive(Clone, Debug)]
pub struct IdealMhd {
    /// Ratio of specific heats.
    pub gamma: f64,
    /// Density floor.
    pub rho_floor: f64,
    /// Pressure floor.
    pub p_floor: f64,
    /// Whether kernels add the Powell 8-wave source (on by default).
    pub powell: bool,
}

// Each expression below is written once, as a by-value lane function, and
// both the scalar `Physics` methods and the row loops call it. The row
// loops run it on lanes of pre-cut planes with `dir` a const generic, so
// LLVM vectorizes them; the arithmetic per lane is the scalar method's,
// in the same order, so the two paths agree bitwise.
impl IdealMhd {
    /// MHD with the given γ, Powell source enabled.
    pub fn new(gamma: f64) -> Self {
        IdealMhd { gamma, rho_floor: 1e-12, p_floor: 1e-12, powell: true }
    }

    /// Gas pressure from a conserved state.
    #[inline]
    pub fn pressure(&self, u: &[f64]) -> f64 {
        self.pressure_of(state(u))
    }

    /// Fast magnetosonic speed along `dir`.
    #[inline]
    pub fn fast_speed(&self, u: &[f64], dir: usize) -> f64 {
        let u = state(u);
        self.fast_of(u, self.pressure_of(u), dir)
    }

    #[inline(always)]
    fn pressure_of(&self, u: State) -> f64 {
        let (ke, me) = kinetic_magnetic(u);
        (self.gamma - 1.0) * (u[IE] - ke - me)
    }

    /// Fast speed of `u` along `dir` given its (unclamped) gas pressure.
    #[inline(always)]
    fn fast_of(&self, u: State, p: f64, dir: usize) -> f64 {
        let rho = u[IRHO];
        let a2 = self.gamma * p.max(0.0) / rho;
        let b2 = (u[IBX] * u[IBX] + u[IBX + 1] * u[IBX + 1] + u[IBX + 2] * u[IBX + 2]) / rho;
        let bn2 = u[IBX + dir] * u[IBX + dir] / rho;
        let s = a2 + b2;
        let disc = (s * s - 4.0 * a2 * bn2).max(0.0).sqrt();
        (0.5 * (s + disc)).max(0.0).sqrt()
    }

    /// `|u_n| + c_f` along `dir` given the gas pressure.
    #[inline(always)]
    fn max_speed_of(&self, u: State, p: f64, dir: usize) -> f64 {
        (u[IMX + dir] / u[IRHO]).abs() + self.fast_of(u, p, dir)
    }

    /// Physical flux along `dir` and the gas pressure it used.
    #[inline(always)]
    fn flux_of(&self, u: State, dir: usize) -> (State, f64) {
        let rho = u[IRHO];
        let inv = 1.0 / rho;
        let v = [u[IMX] * inv, u[IMX + 1] * inv, u[IMX + 2] * inv];
        let b = [u[IBX], u[IBX + 1], u[IBX + 2]];
        let p = self.pressure_of(u);
        let ptot = p + 0.5 * (b[0] * b[0] + b[1] * b[1] + b[2] * b[2]);
        let vn = v[dir];
        let bn = b[dir];
        let vdotb = v[0] * b[0] + v[1] * b[1] + v[2] * b[2];

        let mut out = [0.0; 8];
        out[IRHO] = rho * vn;
        for k in 0..3 {
            out[IMX + k] = rho * v[k] * vn - bn * b[k];
            out[IBX + k] = vn * b[k] - bn * v[k];
        }
        out[IMX + dir] += ptot;
        out[IBX + dir] = 0.0;
        out[IE] = (u[IE] + ptot) * vn - bn * vdotb;
        (out, p)
    }

    #[inline(always)]
    fn prim_of(&self, u: State) -> State {
        let inv = 1.0 / u[IRHO];
        let mut w = u;
        for k in 0..3 {
            w[IMX + k] = u[IMX + k] * inv;
        }
        w[IE] = self.pressure_of(u);
        w
    }

    #[inline(always)]
    fn cons_of(&self, w: State) -> State {
        let mut u = w;
        let mut ke = 0.0;
        let mut me = 0.0;
        for k in 0..3 {
            u[IMX + k] = w[IRHO] * w[IMX + k];
            ke += w[IMX + k] * w[IMX + k];
            me += w[IBX + k] * w[IBX + k];
        }
        u[IE] = w[IE] / (self.gamma - 1.0) + 0.5 * w[IRHO] * ke + 0.5 * me;
        u
    }

    /// Whether [`Physics::apply_floors`] would clamp `u`: the density test,
    /// or the pressure test (which sees the same density whenever the
    /// density test passes).
    #[inline(always)]
    fn needs_floor(&self, u: State) -> bool {
        (u[IRHO] < self.rho_floor) | (self.pressure_of(u) < self.p_floor)
    }

    #[inline(always)]
    fn flux_speed_lanes<const DIR: usize>(
        &self,
        u: &[f64],
        su: usize,
        f: &mut [f64],
        sf: usize,
        speed: &mut [f64],
        lanes: usize,
    ) {
        let u = row_planes::<8>(u, su, lanes);
        let mut f = row_planes_mut::<8>(f, sf, lanes);
        let speed = &mut speed[..lanes];
        for k in 0..lanes {
            let s = lane(&u, k);
            let (flux, p) = self.flux_of(s, DIR);
            for (plane, x) in f.iter_mut().zip(flux) {
                plane[k] = x;
            }
            speed[k] = self.max_speed_of(s, p, DIR);
        }
    }

    #[inline(always)]
    fn max_speed_lanes<const DIR: usize>(&self, u: &[f64], su: usize, out: &mut [f64], lanes: usize) {
        let u = row_planes::<8>(u, su, lanes);
        let out = &mut out[..lanes];
        for k in 0..lanes {
            let s = lane(&u, k);
            out[k] = self.max_speed_of(s, self.pressure_of(s), DIR);
        }
    }
}

impl Physics for IdealMhd {
    fn nvar(&self) -> usize {
        8
    }

    fn flux(&self, u: &[f64], dir: usize, out: &mut [f64]) {
        out[..8].copy_from_slice(&self.flux_of(state(u), dir).0);
    }

    fn max_speed(&self, u: &[f64], dir: usize) -> f64 {
        let u = state(u);
        self.max_speed_of(u, self.pressure_of(u), dir)
    }

    fn signal_speeds(&self, u: &[f64], dir: usize) -> (f64, f64) {
        let vn = u[IMX + dir] / u[IRHO];
        let cf = self.fast_speed(u, dir);
        (vn - cf, vn + cf)
    }

    fn cons_to_prim(&self, u: &[f64], w: &mut [f64]) {
        w[..8].copy_from_slice(&self.prim_of(state(u)));
    }

    fn prim_to_cons(&self, w: &[f64], u: &mut [f64]) {
        u[..8].copy_from_slice(&self.cons_of(state(w)));
    }

    fn var_names(&self) -> &'static [&'static str] {
        &["rho", "mx", "my", "mz", "bx", "by", "bz", "E"]
    }

    fn vector_components(&self) -> Vec<[usize; 3]> {
        vec![[IMX, IMX + 1, IMX + 2], [IBX, IBX + 1, IBX + 2]]
    }

    fn powell_source(&self) -> bool {
        self.powell
    }

    fn b_indices(&self) -> Option<[usize; 3]> {
        Some([IBX, IBX + 1, IBX + 2])
    }

    fn flux_speed_rows(
        &self,
        u: &[f64],
        su: usize,
        dir: usize,
        f: &mut [f64],
        sf: usize,
        speed: &mut [f64],
        lanes: usize,
    ) {
        match dir {
            0 => self.flux_speed_lanes::<0>(u, su, f, sf, speed, lanes),
            1 => self.flux_speed_lanes::<1>(u, su, f, sf, speed, lanes),
            _ => self.flux_speed_lanes::<2>(u, su, f, sf, speed, lanes),
        }
    }

    fn max_speed_rows(&self, u: &[f64], su: usize, dir: usize, out: &mut [f64], lanes: usize) {
        match dir {
            0 => self.max_speed_lanes::<0>(u, su, out, lanes),
            1 => self.max_speed_lanes::<1>(u, su, out, lanes),
            _ => self.max_speed_lanes::<2>(u, su, out, lanes),
        }
    }

    fn cons_to_prim_rows(&self, u: &[f64], su: usize, w: &mut [f64], sw: usize, lanes: usize) {
        let u = row_planes::<8>(u, su, lanes);
        let mut w = row_planes_mut::<8>(w, sw, lanes);
        for k in 0..lanes {
            let s = lane(&u, k);
            // ρ ≤ 0 lanes (unfilled ghost corners) keep their old value:
            // a select, not a branch, so the loop stays vectorized
            let skip = s[IRHO] <= 0.0;
            for (plane, x) in w.iter_mut().zip(self.prim_of(s)) {
                plane[k] = if skip { plane[k] } else { x };
            }
        }
    }

    fn prim_to_cons_rows(&self, w: &[f64], sw: usize, u: &mut [f64], su: usize, lanes: usize) {
        let w = row_planes::<8>(w, sw, lanes);
        let mut u = row_planes_mut::<8>(u, su, lanes);
        for k in 0..lanes {
            for (plane, x) in u.iter_mut().zip(self.cons_of(lane(&w, k))) {
                plane[k] = x;
            }
        }
    }

    fn floor_rows(&self, u: &mut [f64], su: usize, lanes: usize) -> usize {
        let planes = row_planes::<8>(u, su, lanes);
        let mut any = false;
        for k in 0..lanes {
            any |= self.needs_floor(lane(&planes, k));
        }
        if !any {
            return 0;
        }
        let mut count = 0;
        for k in 0..lanes {
            let mut s: State = std::array::from_fn(|v| u[v * su + k]);
            if self.needs_floor(s) && self.apply_floors(&mut s) {
                count += 1;
                for (v, x) in s.into_iter().enumerate() {
                    u[v * su + k] = x;
                }
            }
        }
        count
    }

    fn apply_floors(&self, u: &mut [f64]) -> bool {
        let mut clamped = false;
        if u[IRHO] < self.rho_floor {
            u[IRHO] = self.rho_floor;
            clamped = true;
        }
        if self.pressure(u) < self.p_floor {
            let (ke, me) = kinetic_magnetic(state(u));
            u[IE] = self.p_floor / (self.gamma - 1.0) + ke + me;
            clamped = true;
        }
        clamped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(rho: f64, v: [f64; 3], b: [f64; 3], p: f64) -> [f64; 8] {
        let m = IdealMhd::new(5.0 / 3.0);
        let w = [rho, v[0], v[1], v[2], b[0], b[1], b[2], p];
        let mut u = [0.0; 8];
        m.prim_to_cons(&w, &mut u);
        u
    }

    #[test]
    fn prim_cons_roundtrip() {
        let m = IdealMhd::new(5.0 / 3.0);
        let w = [1.1, 0.2, -0.4, 0.6, 0.75, 1.0, -0.3, 0.95];
        let mut u = [0.0; 8];
        m.prim_to_cons(&w, &mut u);
        let mut w2 = [0.0; 8];
        m.cons_to_prim(&u, &mut w2);
        for v in 0..8 {
            assert!((w[v] - w2[v]).abs() < 1e-13, "var {v}: {} vs {}", w[v], w2[v]);
        }
    }

    #[test]
    fn reduces_to_euler_when_b_zero() {
        // With B = 0 the MHD flux must equal the Euler flux.
        let m = IdealMhd::new(1.4);
        let e = crate::euler::Euler::<3>::new(1.4);
        let u = state(1.3, [0.4, -0.2, 0.1], [0.0; 3], 0.77);
        let ue = [u[0], u[1], u[2], u[3], u[7]];
        let mut fm = [0.0; 8];
        let mut fe = [0.0; 5];
        for dir in 0..3 {
            m.flux(&u, dir, &mut fm);
            e.flux(&ue, dir, &mut fe);
            assert!((fm[0] - fe[0]).abs() < 1e-13);
            for k in 0..3 {
                assert!((fm[1 + k] - fe[1 + k]).abs() < 1e-13);
            }
            assert!((fm[7] - fe[4]).abs() < 1e-13);
            // B flux identically zero
            for k in 0..3 {
                assert_eq!(fm[IBX + k], 0.0);
            }
        }
    }

    #[test]
    fn fast_speed_exceeds_sound_and_alfven() {
        let m = IdealMhd::new(5.0 / 3.0);
        let u = state(1.0, [0.0; 3], [1.0, 0.5, 0.0], 0.6);
        let a = (m.gamma * 0.6 / 1.0f64).sqrt();
        let ca = 1.0; // |Bx|/sqrt(rho) along x
        let cf = m.fast_speed(&u, 0);
        assert!(cf >= a - 1e-14, "cf {cf} < a {a}");
        assert!(cf >= ca - 1e-14, "cf {cf} < ca {ca}");
    }

    #[test]
    fn fast_speed_perpendicular_is_magnetosonic() {
        // B purely transverse: cf^2 = a^2 + b^2 exactly.
        let m = IdealMhd::new(5.0 / 3.0);
        let u = state(2.0, [0.0; 3], [0.0, 1.2, 0.0], 0.9);
        let a2 = m.gamma * 0.9 / 2.0;
        let b2 = 1.2 * 1.2 / 2.0;
        let cf = m.fast_speed(&u, 0);
        assert!((cf * cf - (a2 + b2)).abs() < 1e-12);
    }

    #[test]
    fn normal_b_flux_is_zero() {
        let m = IdealMhd::new(5.0 / 3.0);
        let u = state(1.0, [0.3, 0.2, -0.7], [0.4, -0.5, 0.6], 1.1);
        let mut f = [0.0; 8];
        for dir in 0..3 {
            m.flux(&u, dir, &mut f);
            assert_eq!(f[IBX + dir], 0.0, "normal B component is advected by sources only");
        }
    }

    #[test]
    fn energy_includes_magnetic_term() {
        let m = IdealMhd::new(5.0 / 3.0);
        let u = state(1.0, [0.0; 3], [2.0, 0.0, 0.0], 1.0);
        // E = p/(g-1) + B^2/2 = 1.5 + 2.0
        assert!((u[IE] - 3.5).abs() < 1e-14);
        assert!((m.pressure(&u) - 1.0).abs() < 1e-14);
    }

    #[test]
    fn floors_recover_negative_pressure() {
        let m = IdealMhd::new(5.0 / 3.0);
        let mut u = state(1.0, [0.1, 0.0, 0.0], [1.0, 0.0, 0.0], 0.5);
        u[IE] -= 10.0; // wreck the energy
        assert!(m.pressure(&u) < 0.0);
        assert!(m.apply_floors(&mut u));
        assert!(m.pressure(&u) > 0.0);
    }
}

//! The physics interface the finite-volume kernels are generic over.
//!
//! A [`Physics`] supplies conserved↔primitive conversions, the physical
//! flux, and characteristic speed estimates; the kernels in
//! [`crate::kernel`] turn any such system into a block update. The two
//! systems the paper's evaluation needs are [`crate::euler::Euler`] (gas
//! dynamics) and [`crate::mhd::IdealMhd`] (the solar-wind workload).

/// Maximum conserved variables any supported system uses (ideal MHD: 8).
pub const MAX_VARS: usize = 8;

/// Lanes per row chunk in the row-batched kernels: the sweep processes
/// x-contiguous runs of at most this many interfaces at a time, so row
/// scratch can live in fixed `MAX_VARS * ROW_CHUNK` stack slabs.
pub const ROW_CHUNK: usize = 64;

/// A hyperbolic system of conservation laws, `∂u/∂t + ∇·F(u) = S(u)`.
///
/// State slices passed in always have length `nvar()`. Implementations
/// must be cheap to clone (they are carried by value into kernels).
pub trait Physics: Clone + Send + Sync + 'static {
    /// Number of conserved variables.
    fn nvar(&self) -> usize;

    /// Physical flux along axis `dir` for conserved state `u`.
    fn flux(&self, u: &[f64], dir: usize, out: &mut [f64]);

    /// Fastest characteristic speed magnitude along `dir` (for CFL and
    /// Rusanov dissipation): `max_k |λ_k|`.
    fn max_speed(&self, u: &[f64], dir: usize) -> f64;

    /// Signal speed bounds `(λ_min, λ_max)` along `dir` (for HLL).
    /// The default derives them from [`Physics::max_speed`] symmetrically.
    fn signal_speeds(&self, u: &[f64], dir: usize) -> (f64, f64) {
        let s = self.max_speed(u, dir);
        (-s, s)
    }

    /// Conserved → primitive variables.
    fn cons_to_prim(&self, u: &[f64], w: &mut [f64]);

    /// Primitive → conserved variables.
    fn prim_to_cons(&self, w: &[f64], u: &mut [f64]);

    /// Human-readable names of the conserved variables (for output).
    fn var_names(&self) -> &'static [&'static str];

    /// Index triples of variables forming spatial vectors (momentum,
    /// magnetic field). Reflecting boundaries flip the normal component.
    fn vector_components(&self) -> Vec<[usize; 3]>;

    /// True if the kernel should add the Powell 8-wave `-(∇·B)(0,B,u,u·B)`
    /// source term (ideal MHD only).
    fn powell_source(&self) -> bool {
        false
    }

    /// Indices `(bx, by, bz)` of the magnetic field components, if any.
    fn b_indices(&self) -> Option<[usize; 3]> {
        None
    }

    /// Clamp a conserved state back into the physically admissible set
    /// (density/pressure floors). Returns true if anything was clamped.
    fn apply_floors(&self, _u: &mut [f64]) -> bool {
        false
    }

    // --- Row-batched forms -------------------------------------------------
    //
    // The SoA kernels hand these methods *variable-major slabs*: variable
    // `v` of lane `k` lives at `slab[v * stride + k]`, so each variable is a
    // stride-1 run over the lanes. The defaults gather every lane and call
    // the scalar method — always correct. Implementations should override
    // them with elementwise loops that perform the *same arithmetic per
    // lane*; the kernels (and the cross-backend differential suite) rely on
    // row and scalar paths being bitwise identical, and
    // `tests/row_equivalence.rs` checks it lane by lane.
    //
    // For the override to vectorize, cut every plane to `lanes` once with
    // [`row_planes`] / [`row_planes_mut`] before the lane loop, and dispatch
    // `dir` once to a const-generic body: a loop over pre-cut slices has
    // no bounds checks and no runtime-indexed array, so LLVM keeps every
    // lane in a vector register. Rust never contracts `a * b + c` into an
    // FMA, so the packed lanes round exactly like the scalar method.

    /// Row-batched [`Physics::flux`]: `lanes` states in slab `u` (stride
    /// `su`), fluxes written to slab `f` (stride `sf`).
    fn flux_rows(&self, u: &[f64], su: usize, dir: usize, f: &mut [f64], sf: usize, lanes: usize) {
        let n = self.nvar();
        let mut uc = [0.0; MAX_VARS];
        let mut fc = [0.0; MAX_VARS];
        for k in 0..lanes {
            for v in 0..n {
                uc[v] = u[v * su + k];
            }
            self.flux(&uc[..n], dir, &mut fc[..n]);
            for v in 0..n {
                f[v * sf + k] = fc[v];
            }
        }
    }

    /// Row-batched [`Physics::max_speed`]: one speed per lane into `out`.
    fn max_speed_rows(&self, u: &[f64], su: usize, dir: usize, out: &mut [f64], lanes: usize) {
        let n = self.nvar();
        let mut uc = [0.0; MAX_VARS];
        for (k, o) in out.iter_mut().enumerate().take(lanes) {
            for v in 0..n {
                uc[v] = u[v * su + k];
            }
            *o = self.max_speed(&uc[..n], dir);
        }
    }

    /// Row-batched flux and max signal speed in one call — what a Rusanov
    /// interface needs from each side. The default is the two separate
    /// passes; physics models override it to share the per-lane
    /// subexpressions (density inverse, pressure) the two computations
    /// have in common. Overrides must evaluate every shared term with the
    /// exact expression the separate methods use, so fused and unfused
    /// paths agree bitwise.
    #[allow(clippy::too_many_arguments)]
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
        self.flux_rows(u, su, dir, f, sf, lanes);
        self.max_speed_rows(u, su, dir, speed, lanes);
    }

    /// Row-batched [`Physics::cons_to_prim`] with the kernel's ghost-corner
    /// guard: lanes whose density (variable 0) is non-positive are left
    /// untouched in `w` (unfilled ghost corners hold zeros; the sweep never
    /// reads them, but the scratch must not be clobbered with NaNs).
    fn cons_to_prim_rows(&self, u: &[f64], su: usize, w: &mut [f64], sw: usize, lanes: usize) {
        let n = self.nvar();
        let mut uc = [0.0; MAX_VARS];
        let mut wc = [0.0; MAX_VARS];
        for k in 0..lanes {
            if u[k] > 0.0 {
                for v in 0..n {
                    uc[v] = u[v * su + k];
                }
                self.cons_to_prim(&uc[..n], &mut wc[..n]);
                for v in 0..n {
                    w[v * sw + k] = wc[v];
                }
            }
        }
    }

    /// Row-batched [`Physics::prim_to_cons`].
    fn prim_to_cons_rows(&self, w: &[f64], sw: usize, u: &mut [f64], su: usize, lanes: usize) {
        let n = self.nvar();
        let mut wc = [0.0; MAX_VARS];
        let mut uc = [0.0; MAX_VARS];
        for k in 0..lanes {
            for v in 0..n {
                wc[v] = w[v * sw + k];
            }
            self.prim_to_cons(&wc[..n], &mut uc[..n]);
            for v in 0..n {
                u[v * su + k] = uc[v];
            }
        }
    }

    /// Row-batched [`Physics::apply_floors`], in place on `lanes` states
    /// in slab `u` (stride `su`); returns the number of lanes clamped.
    /// Overrides test every lane in one vector pass and run the scalar
    /// [`Physics::apply_floors`] only on the lanes that test flags.
    fn floor_rows(&self, u: &mut [f64], su: usize, lanes: usize) -> usize {
        let n = self.nvar();
        let mut uc = [0.0; MAX_VARS];
        let mut count = 0;
        for k in 0..lanes {
            for v in 0..n {
                uc[v] = u[v * su + k];
            }
            if self.apply_floors(&mut uc[..n]) {
                count += 1;
                for v in 0..n {
                    u[v * su + k] = uc[v];
                }
            }
        }
        count
    }
}

/// The first `N` variable planes of a variable-major slab, each cut to
/// `lanes` values (plane `v` starts at `v * stride`). Row loops index
/// these pre-cut slices so their bounds checks fold away.
#[inline(always)]
pub(crate) fn row_planes<const N: usize>(slab: &[f64], stride: usize, lanes: usize) -> [&[f64]; N] {
    std::array::from_fn(|v| &slab[v * stride..v * stride + lanes])
}

/// Mutable [`row_planes`]: `N` disjoint planes of `lanes` values each.
#[inline(always)]
pub(crate) fn row_planes_mut<const N: usize>(
    slab: &mut [f64],
    stride: usize,
    lanes: usize,
) -> [&mut [f64]; N] {
    debug_assert!(lanes <= stride || N == 1);
    let mut rest = slab;
    std::array::from_fn(|_| {
        let tail = std::mem::take(&mut rest);
        let (plane, next) = tail.split_at_mut(stride.min(tail.len()));
        rest = next;
        &mut plane[..lanes]
    })
}

/// Velocity vector from momentum and density (helper for implementations).
#[inline]
pub fn velocity3(rho: f64, m: &[f64]) -> [f64; 3] {
    let inv = 1.0 / rho;
    [m[0] * inv, m.get(1).copied().unwrap_or(0.0) * inv, m.get(2).copied().unwrap_or(0.0) * inv]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone)]
    struct Scalar;
    impl Physics for Scalar {
        fn nvar(&self) -> usize {
            1
        }
        fn flux(&self, u: &[f64], _dir: usize, out: &mut [f64]) {
            out[0] = u[0];
        }
        fn max_speed(&self, _u: &[f64], _dir: usize) -> f64 {
            1.0
        }
        fn cons_to_prim(&self, u: &[f64], w: &mut [f64]) {
            w[0] = u[0];
        }
        fn prim_to_cons(&self, w: &[f64], u: &mut [f64]) {
            u[0] = w[0];
        }
        fn var_names(&self) -> &'static [&'static str] {
            &["q"]
        }
        fn vector_components(&self) -> Vec<[usize; 3]> {
            Vec::new()
        }
    }

    #[test]
    fn default_signal_speeds_symmetric() {
        let s = Scalar;
        assert_eq!(s.signal_speeds(&[1.0], 0), (-1.0, 1.0));
        assert!(!s.powell_source());
        assert!(s.b_indices().is_none());
        assert!(!s.apply_floors(&mut [1.0]));
    }

    #[test]
    fn velocity_helper() {
        let v = velocity3(2.0, &[4.0, 6.0, 8.0]);
        assert_eq!(v, [2.0, 3.0, 4.0]);
        let v1 = velocity3(2.0, &[4.0]);
        assert_eq!(v1, [2.0, 0.0, 0.0]);
    }
}

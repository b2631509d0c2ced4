//! Block update kernels — the hot loops of the whole repository.
//!
//! Everything Fig. 5 of the paper measures happens here: a block is a
//! regular array with ghost layers, so the kernel runs dense loops with
//! unit-stride inner dimension, no indirection, and all neighbor data
//! already resident in the ghost cells. Compare `ablock_celltree::fv`,
//! which must traverse the tree per face.
//!
//! The kernel is a dimension-by-dimension finite-volume update:
//! primitives are precomputed over the ghosted box once, each interface is
//! reconstructed (first-order or MUSCL), fed to the chosen approximate
//! Riemann solver, and accumulated into the RHS. Ideal MHD additionally
//! receives the Powell 8-wave `−(∇·B)(0, B, u, u·B)` source evaluated with
//! central differences.

use ablock_core::field::FieldBlock;
use ablock_core::index::{Face, IVec};

use crate::flux::{numerical_flux, numerical_flux_rows, Riemann, FLUX_ROW_SCRATCH};
use crate::physics::{Physics, MAX_VARS, ROW_CHUNK};
use crate::recon::{limited_slope_row, Recon};

/// Full spatial scheme: reconstruction plus Riemann solver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scheme {
    /// Interface reconstruction.
    pub recon: Recon,
    /// Approximate Riemann solver.
    pub riemann: Riemann,
}

impl Scheme {
    /// Second-order MUSCL/minmod + Rusanov — the workhorse configuration.
    pub fn muscl_rusanov() -> Self {
        Scheme { recon: Recon::Muscl(crate::recon::Limiter::Minmod), riemann: Riemann::Rusanov }
    }

    /// First-order Godunov + Rusanov (one ghost layer suffices).
    pub fn first_order() -> Self {
        Scheme { recon: Recon::FirstOrder, riemann: Riemann::Rusanov }
    }
}

/// Interface fluxes recorded on the six faces of one block, used by the
/// refluxing pass (`crate::reflux`) to make coarse/fine interfaces exactly
/// conservative.
///
/// Layout per face: `nvar` values per interface cell, interface cells in
/// row-major order over the transverse axes (lowest axis fastest).
#[derive(Clone, Debug)]
pub struct FaceFluxStore<const D: usize> {
    nvar: usize,
    dims: IVec<D>,
    faces: Vec<Vec<f64>>,
}

impl<const D: usize> FaceFluxStore<D> {
    /// Zeroed store for a block of `dims` interior cells.
    pub fn new(dims: IVec<D>, nvar: usize) -> Self {
        let mut faces = Vec::with_capacity(2 * D);
        for fi in 0..2 * D {
            let dir = fi / 2;
            let cells: i64 = (0..D).filter(|&a| a != dir).map(|a| dims[a]).product();
            faces.push(vec![0.0; cells as usize * nvar]);
        }
        FaceFluxStore { nvar, dims, faces }
    }

    /// Linear offset of the interface cell with transverse coordinates
    /// taken from `c` (the normal component of `c` is ignored).
    #[inline]
    pub fn offset(&self, face: Face, c: IVec<D>) -> usize {
        let dir = face.dim as usize;
        let mut idx = 0i64;
        let mut stride = 1i64;
        for a in 0..D {
            if a == dir {
                continue;
            }
            idx += c[a] * stride;
            stride *= self.dims[a];
        }
        idx as usize * self.nvar
    }

    /// Flux vector of one interface cell on one face.
    pub fn flux(&self, face: Face, c: IVec<D>) -> &[f64] {
        let o = self.offset(face, c);
        &self.faces[face.index()][o..o + self.nvar]
    }

    /// Mutable flux vector of one interface cell.
    pub fn flux_mut(&mut self, face: Face, c: IVec<D>) -> &mut [f64] {
        let o = self.offset(face, c);
        &mut self.faces[face.index()][o..o + self.nvar]
    }

    /// All flux values of one face.
    pub fn face(&self, face: Face) -> &[f64] {
        &self.faces[face.index()]
    }

    /// All flux values of one face, mutably (the distributed subcycled
    /// path writes fetched fine-side accumulator faces here).
    pub fn face_mut(&mut self, face: Face) -> &mut [f64] {
        &mut self.faces[face.index()]
    }

    /// Reset every face to zero (accumulator reuse between substeps).
    pub fn zero(&mut self) {
        for f in &mut self.faces {
            f.fill(0.0);
        }
    }

    /// Accumulate `w * other` face-by-face — the stage-weighted sum that
    /// turns per-stage instantaneous fluxes into a time-integrated face
    /// flux (`Σ_s w_s Δt F_s`).
    pub fn add_scaled(&mut self, other: &FaceFluxStore<D>, w: f64) {
        debug_assert_eq!(self.dims, other.dims);
        debug_assert_eq!(self.nvar, other.nvar);
        for (dst, src) in self.faces.iter_mut().zip(&other.faces) {
            for (x, y) in dst.iter_mut().zip(src) {
                *x += w * y;
            }
        }
    }
}

/// One variable-major row-chunk slab: variable `v` of lane `k` at
/// `[v * ROW_CHUNK + k]`.
const SLAB: usize = MAX_VARS * ROW_CHUNK;

/// Convert the conserved field to primitives over the whole ghosted box
/// into `prim` (same variable-major layout and plane stride as the field's
/// storage), one x-contiguous row at a time. Cells whose density is
/// non-positive (unfilled ghost corners) are skipped.
fn primitives<const D: usize, P: Physics>(phys: &P, field: &FieldBlock<D>, prim: &mut [f64]) {
    let shape = *field.shape();
    let ps = shape.plane_stride();
    let u = field.as_slice();
    let gb = shape.ghosted_box();
    let mut rowbox = gb;
    rowbox.hi[0] = gb.lo[0] + 1;
    let row_len = (gb.hi[0] - gb.lo[0]) as usize;
    for rc in rowbox.iter() {
        let base = shape.lin(rc);
        phys.cons_to_prim_rows(&u[base..], ps, &mut prim[base..], ps, row_len);
    }
}

/// Accumulate `∂u/∂t` for one block into `rhs` (interior cells only; `rhs`
/// must have the same shape as `field`). Ghosts of `field` must be filled.
/// `h` is the physical cell size of this block's level. Returns the number
/// of interface flux evaluations (one per interface per direction).
pub fn compute_rhs_block<const D: usize, P: Physics>(
    phys: &P,
    scheme: Scheme,
    field: &FieldBlock<D>,
    h: [f64; D],
    rhs: &mut FieldBlock<D>,
    prim_scratch: &mut Vec<f64>,
) -> usize {
    compute_rhs_block_fluxes(phys, scheme, field, h, rhs, prim_scratch, None)
}

/// [`compute_rhs_block`] with optional recording of the block-face
/// interface fluxes (needed by the refluxing pass).
#[allow(clippy::too_many_arguments)]
pub fn compute_rhs_block_fluxes<const D: usize, P: Physics>(
    phys: &P,
    scheme: Scheme,
    field: &FieldBlock<D>,
    h: [f64; D],
    rhs: &mut FieldBlock<D>,
    prim_scratch: &mut Vec<f64>,
    mut flux_store: Option<&mut FaceFluxStore<D>>,
) -> usize {
    let n = phys.nvar();
    debug_assert_eq!(field.shape(), rhs.shape());
    debug_assert!(field.shape().nghost >= scheme.recon.required_ghosts());
    let shape = *field.shape();
    let strides = shape.strides();
    let ps = shape.plane_stride();
    // Immersed-solid handling (DESIGN.md §18): when the shape carries a
    // mask plane, interfaces between two solid cells get zero flux and
    // solid/fluid interfaces get a reflective-wall flux built by mirroring
    // the fluid state. The maskless path is bitwise untouched.
    let masked = shape.mask_plane;
    let mask: &[f64] = if masked { field.mask().expect("mask plane") } else { &[] };
    let vecs: Vec<[usize; 3]> = if masked { phys.vector_components() } else { Vec::new() };

    // zero the RHS interior, plane by plane (x rows are contiguous in
    // every variable plane)
    {
        let ib = shape.interior_box();
        let mut rowbox = ib;
        rowbox.hi[0] = ib.lo[0] + 1;
        let row_len = (ib.hi[0] - ib.lo[0]) as usize;
        let rhs_s = rhs.as_mut_slice();
        for rc in rowbox.iter() {
            let i0 = shape.lin(rc);
            for v in 0..n {
                rhs_s[v * ps + i0..v * ps + i0 + row_len].fill(0.0);
            }
        }
    }

    // The scratch vector holds, in order: the primitive field; for MUSCL a
    // slope plane of the same size (each cell's limited slope is computed
    // once per direction and reused by both interfaces that touch the
    // cell — the inputs are exactly the per-interface stencil differences,
    // so results are bitwise identical to recomputing them at each
    // interface); then the row-chunk slabs. The vector outlives the call,
    // so it is zero-filled only when it grows: every value the sweep reads
    // was written earlier in the same call.
    let field_len = field.as_slice().len();
    let slope_len = if matches!(scheme.recon, Recon::Muscl(_)) {
        field_len
    } else {
        0
    };
    prim_scratch.resize(field_len + slope_len + 5 * SLAB + FLUX_ROW_SCRATCH, 0.0);
    let (prim, rest) = prim_scratch.split_at_mut(field_len);
    let (slope, rest) = rest.split_at_mut(slope_len);
    primitives(phys, field, prim);
    let prim: &[f64] = prim;
    let rhs_s = rhs.as_mut_slice();

    // Variable-major row-chunk slabs. Lane `k` is the interface whose
    // RIGHT cell is the k-th cell of the current x-row chunk.
    let (wl, rest) = rest.split_at_mut(SLAB);
    let (wr, rest) = rest.split_at_mut(SLAB);
    let (ul, rest) = rest.split_at_mut(SLAB);
    let (ur, rest) = rest.split_at_mut(SLAB);
    let (f, flux_scratch) = rest.split_at_mut(SLAB);
    let mut nflux = 0usize;

    for dir in 0..D {
        let step = strides[dir] as usize;
        let inv_h = 1.0 / h[dir];
        let m_dir = shape.dims[dir];
        // interface index i in [0, m]: between cells i-1 and i along dir
        let mut ibox = shape.interior_box();
        ibox.hi[dir] += 1;
        // One x-row at a time. For dir == 0 the row spans the m+1 interface
        // positions; for transverse sweeps every lane of a row shares the
        // interface index rc[dir]. Either way both the left and the right
        // cell runs are x-contiguous, so every load below is stride-1.
        let mut rowbox = ibox;
        rowbox.hi[0] = ibox.lo[0] + 1;
        let row_len = (ibox.hi[0] - ibox.lo[0]) as usize;
        if let Recon::Muscl(lim) = scheme.recon {
            // fill the slope plane for this direction: every cell an
            // interface extrapolates from (interior grown by one along
            // `dir`), one x-row at a time
            let mut sbox = shape.interior_box();
            sbox.lo[dir] -= 1;
            sbox.hi[dir] += 1;
            let mut srowbox = sbox;
            srowbox.hi[0] = sbox.lo[0] + 1;
            let srow_len = (sbox.hi[0] - sbox.lo[0]) as usize;
            for rc in srowbox.iter() {
                let b = shape.lin(rc);
                for v in 0..n {
                    let p = &prim[v * ps..];
                    let s = &mut slope[v * ps + b..][..srow_len];
                    limited_slope_row(lim, s, &p[b - step..], &p[b..], &p[b + step..]);
                }
                if masked {
                    // First order at walls: a cell whose slope stencil
                    // touches a solid cell extrapolates constantly. The
                    // check uses the ghost masks too, so neighboring blocks
                    // make the bitwise-same decision at shared interfaces.
                    for j in b..b + srow_len {
                        if mask[j - step] != 0.0 || mask[j] != 0.0 || mask[j + step] != 0.0 {
                            for v in 0..n {
                                slope[v * ps + j] = 0.0;
                            }
                        }
                    }
                }
            }
        }
        for rc in rowbox.iter() {
            let base = shape.lin(rc);
            let mut k0 = 0usize;
            while k0 < row_len {
                let lanes = (row_len - k0).min(ROW_CHUNK);
                let ic0 = base + k0; // right-cell offset of lane 0
                let im0 = ic0 - step;
                match scheme.recon {
                    Recon::FirstOrder => {
                        phys.prim_to_cons_rows(&prim[im0..], ps, ul, ROW_CHUNK, lanes);
                        phys.prim_to_cons_rows(&prim[ic0..], ps, ur, ROW_CHUNK, lanes);
                    }
                    Recon::Muscl(_) => {
                        // uL extrapolates from cell i-1 (offset im0+k), uR
                        // from cell i (offset ic0+k); both reads stride-1
                        for v in 0..n {
                            let (p, s) = (&prim[v * ps..], &slope[v * ps..]);
                            let (pm, sm) = (&p[im0..][..lanes], &s[im0..][..lanes]);
                            let wlv = &mut wl[v * ROW_CHUNK..][..lanes];
                            for k in 0..lanes {
                                wlv[k] = pm[k] + 0.5 * sm[k];
                            }
                            let (pc, sc) = (&p[ic0..][..lanes], &s[ic0..][..lanes]);
                            let wrv = &mut wr[v * ROW_CHUNK..][..lanes];
                            for k in 0..lanes {
                                wrv[k] = pc[k] - 0.5 * sc[k];
                            }
                        }
                        phys.prim_to_cons_rows(wl, ROW_CHUNK, ul, ROW_CHUNK, lanes);
                        phys.prim_to_cons_rows(wr, ROW_CHUNK, ur, ROW_CHUNK, lanes);
                    }
                }
                numerical_flux_rows(
                    phys,
                    scheme.riemann,
                    ul,
                    ur,
                    dir,
                    f,
                    ROW_CHUNK,
                    lanes,
                    flux_scratch,
                );
                nflux += lanes;

                if masked {
                    // Override the lanes that touch a solid cell BEFORE the
                    // flux-store recording and the RHS accumulation, so the
                    // refluxing pass sees wall fluxes too. Solid/solid
                    // interfaces carry nothing; solid/fluid interfaces get
                    // the reflective-wall flux from the mirrored fluid
                    // state (the fluid-side reconstruction is first-order
                    // here because its slope was zeroed above), whose mass
                    // and energy components are exactly ±0.0 — only the
                    // normal momentum (wall pressure) survives.
                    for k in 0..lanes {
                        let solid_l = mask[im0 + k] != 0.0;
                        let solid_r = mask[ic0 + k] != 0.0;
                        if !solid_l && !solid_r {
                            continue;
                        }
                        if solid_l && solid_r {
                            for v in 0..n {
                                f[v * ROW_CHUNK + k] = 0.0;
                            }
                            continue;
                        }
                        let slab: &[f64] = if solid_l { ur } else { ul };
                        let mut uf = [0.0; MAX_VARS];
                        for (v, x) in uf[..n].iter_mut().enumerate() {
                            *x = slab[v * ROW_CHUNK + k];
                        }
                        let mut um = uf;
                        for t in &vecs {
                            um[t[dir]] = -um[t[dir]];
                        }
                        let mut fw = [0.0; MAX_VARS];
                        if solid_l {
                            numerical_flux(phys, scheme.riemann, &um[..n], &uf[..n], dir, &mut fw[..n]);
                        } else {
                            numerical_flux(phys, scheme.riemann, &uf[..n], &um[..n], dir, &mut fw[..n]);
                        }
                        for v in 0..n {
                            f[v * ROW_CHUNK + k] = fw[v];
                        }
                    }
                }

                if let Some(store) = flux_store.as_deref_mut() {
                    if dir == 0 {
                        // interface index of lane k is k0 + k
                        if k0 == 0 {
                            let fm = store.flux_mut(Face::new(0, false), rc);
                            for (v, x) in fm.iter_mut().enumerate() {
                                *x = f[v * ROW_CHUNK];
                            }
                        }
                        if k0 + lanes == row_len {
                            let fm = store.flux_mut(Face::new(0, true), rc);
                            for (v, x) in fm.iter_mut().enumerate() {
                                *x = f[v * ROW_CHUNK + lanes - 1];
                            }
                        }
                    } else {
                        let i = rc[dir];
                        if i == 0 || i == m_dir {
                            let face = Face::new(dir, i == m_dir);
                            for k in 0..lanes {
                                let mut c = rc;
                                c[0] = (k0 + k) as i64;
                                let fm = store.flux_mut(face, c);
                                for (v, x) in fm.iter_mut().enumerate() {
                                    *x = f[v * ROW_CHUNK + k];
                                }
                            }
                        }
                    }
                }

                // Accumulate += into right cells before -= into left cells:
                // per (cell, var) slot this preserves the interface-ascending
                // order of the scalar kernel (gain from the left interface,
                // then loss to the right one), keeping results bitwise
                // identical.
                if dir == 0 {
                    let n_plus = lanes.min(m_dir as usize - k0); // lanes with i < m
                    let k_minus = usize::from(k0 == 0); // first lane with i > 0
                    for v in 0..n {
                        let fv = &f[v * ROW_CHUNK..v * ROW_CHUNK + lanes];
                        let rp = &mut rhs_s[v * ps + ic0..v * ps + ic0 + lanes];
                        for k in 0..n_plus {
                            rp[k] += fv[k] * inv_h;
                        }
                    }
                    for v in 0..n {
                        let fv = &f[v * ROW_CHUNK..v * ROW_CHUNK + lanes];
                        let rp = &mut rhs_s[v * ps + im0..v * ps + im0 + lanes];
                        for k in k_minus..lanes {
                            rp[k] -= fv[k] * inv_h;
                        }
                    }
                } else {
                    let i = rc[dir];
                    if i < m_dir {
                        for v in 0..n {
                            let fv = &f[v * ROW_CHUNK..v * ROW_CHUNK + lanes];
                            let rp = &mut rhs_s[v * ps + ic0..v * ps + ic0 + lanes];
                            for k in 0..lanes {
                                rp[k] += fv[k] * inv_h;
                            }
                        }
                    }
                    if i > 0 {
                        for v in 0..n {
                            let fv = &f[v * ROW_CHUNK..v * ROW_CHUNK + lanes];
                            let rp = &mut rhs_s[v * ps + im0..v * ps + im0 + lanes];
                            for k in 0..lanes {
                                rp[k] -= fv[k] * inv_h;
                            }
                        }
                    }
                }
                k0 += lanes;
            }
        }
    }

    if phys.powell_source() {
        add_powell_source(phys, field, h, rhs);
    }
    nflux
}

/// Add the Powell 8-wave source `−(∇·B)(0, B, u, u·B)` over the interior,
/// with `∇·B` from central differences (requires one valid ghost layer).
pub fn add_powell_source<const D: usize, P: Physics>(
    phys: &P,
    field: &FieldBlock<D>,
    h: [f64; D],
    rhs: &mut FieldBlock<D>,
) {
    let [ibx, iby, ibz] = phys.b_indices().expect("powell source requires B field");
    let b_idx = [ibx, iby, ibz];
    let shape = *field.shape();
    let strides = shape.strides();
    let ps = shape.plane_stride();
    let ie = phys.nvar() - 1;
    let u = field.as_slice();
    let rhs_s = rhs.as_mut_slice();
    let ib = shape.interior_box();
    let mut rowbox = ib;
    rowbox.hi[0] = ib.lo[0] + 1;
    let row_len = (ib.hi[0] - ib.lo[0]) as usize;
    for rc in rowbox.iter() {
        let base = shape.lin(rc);
        let mut k0 = 0usize;
        while k0 < row_len {
            let lanes = (row_len - k0).min(ROW_CHUNK);
            let i0 = base + k0;
            // central-difference div B, accumulated per direction over the
            // row (stride-1 loads: the ±strides[d] shifts stay x-contiguous)
            let mut divb = [0.0; ROW_CHUNK];
            for (d, &hd) in h.iter().enumerate() {
                let s = strides[d] as usize;
                let bp = &u[b_idx[d] * ps..];
                for (k, db) in divb[..lanes].iter_mut().enumerate() {
                    *db += (bp[i0 + k + s] - bp[i0 + k - s]) / (2.0 * hd);
                }
            }
            for (k, &db) in divb[..lanes].iter().enumerate() {
                if db == 0.0 {
                    continue;
                }
                let i = i0 + k;
                let rho = u[i];
                let v = [u[ps + i] / rho, u[2 * ps + i] / rho, u[3 * ps + i] / rho];
                let b = [u[ibx * ps + i], u[iby * ps + i], u[ibz * ps + i]];
                let vdotb = v[0] * b[0] + v[1] * b[1] + v[2] * b[2];
                for j in 0..3 {
                    rhs_s[(1 + j) * ps + i] -= db * b[j];
                    rhs_s[b_idx[j] * ps + i] -= db * v[j];
                }
                rhs_s[ie * ps + i] -= db * vdotb;
            }
            k0 += lanes;
        }
    }
}

/// Maximum of `Σ_d max_speed_d / h_d` over the interior — the reciprocal
/// of the largest stable forward-Euler `dt` (times the CFL number).
pub fn max_rate_block<const D: usize, P: Physics>(
    phys: &P,
    field: &FieldBlock<D>,
    h: [f64; D],
) -> f64 {
    let shape = *field.shape();
    let ps = shape.plane_stride();
    let u = field.as_slice();
    let mask = field.mask();
    let mut rate: f64 = 0.0;
    let ib = shape.interior_box();
    let mut rowbox = ib;
    rowbox.hi[0] = ib.lo[0] + 1;
    let row_len = (ib.hi[0] - ib.lo[0]) as usize;
    let mut ms = [[0.0; ROW_CHUNK]; 3];
    let mut r = [0.0; ROW_CHUNK];
    for rc in rowbox.iter() {
        let base = shape.lin(rc);
        let mut k0 = 0usize;
        while k0 < row_len {
            let lanes = (row_len - k0).min(ROW_CHUNK);
            for (d, m) in ms.iter_mut().enumerate().take(D) {
                phys.max_speed_rows(&u[base + k0..], ps, d, m, lanes);
            }
            let r = &mut r[..lanes];
            r.fill(0.0);
            for d in 0..D {
                let md = &ms[d][..lanes];
                for k in 0..lanes {
                    r[k] += md[k] / h[d];
                }
            }
            match mask {
                None => rate = r.iter().fold(rate, |a, &x| a.max(x)),
                // solid cells never constrain dt (their frozen state may
                // be arbitrary, e.g. all-zero)
                Some(m) => {
                    for (&x, &solid) in r.iter().zip(&m[base + k0..base + k0 + lanes]) {
                        if solid == 0.0 {
                            rate = rate.max(x);
                        }
                    }
                }
            }
            k0 += lanes;
        }
    }
    rate
}

/// Apply positivity floors over the interior; returns cells clamped.
/// Solid cells are skipped — their frozen state must stay bitwise inert,
/// and floors would otherwise clamp e.g. an all-zero solid interior.
pub fn apply_floors_block<const D: usize, P: Physics>(
    phys: &P,
    field: &mut FieldBlock<D>,
) -> usize {
    let mut count = 0;
    let shape = *field.shape();
    let ps = shape.plane_stride();
    let data = field.as_mut_slice();
    if shape.mask_plane {
        let n = shape.nvar;
        let mo = n * ps;
        let mut buf = [0.0; MAX_VARS];
        for c in shape.interior_box().iter() {
            let i = shape.lin(c);
            if data[mo + i] != 0.0 {
                continue;
            }
            for (v, b) in buf[..n].iter_mut().enumerate() {
                *b = data[i + v * ps];
            }
            if phys.apply_floors(&mut buf[..n]) {
                count += 1;
                for (v, &b) in buf[..n].iter().enumerate() {
                    data[i + v * ps] = b;
                }
            }
        }
    } else {
        let ib = shape.interior_box();
        let mut rowbox = ib;
        rowbox.hi[0] = ib.lo[0] + 1;
        let row_len = (ib.hi[0] - ib.lo[0]) as usize;
        for rc in rowbox.iter() {
            count += phys.floor_rows(&mut data[shape.lin(rc)..], ps, row_len);
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::euler::Euler;
    use crate::mhd::IdealMhd;
    use ablock_core::field::FieldShape;

    /// Fill an isolated block (ghosts included) with uniform flow.
    fn uniform_block<P: Physics>(phys: &P, shape: FieldShape<2>, w: &[f64]) -> FieldBlock<2> {
        let mut f = FieldBlock::zeros(shape);
        let n = phys.nvar();
        let mut u = vec![0.0; n];
        phys.prim_to_cons(w, &mut u);
        f.for_each_ghosted(|_, cell| cell.copy_from_slice(&u));
        f
    }

    #[test]
    fn uniform_state_has_zero_rhs() {
        // Free-stream preservation: uniform flow must produce rhs = 0.
        let e = Euler::<2>::new(1.4);
        let shape = FieldShape::new([8, 6], 2, 4);
        let field = uniform_block(&e, shape, &[1.0, 0.3, -0.2, 0.8]);
        let mut rhs = FieldBlock::zeros(shape);
        let mut scratch = Vec::new();
        for scheme in [Scheme::first_order(), Scheme::muscl_rusanov()] {
            compute_rhs_block(&e, scheme, &field, [0.1, 0.1], &mut rhs, &mut scratch);
            for c in shape.interior_box().iter() {
                for v in 0..4 {
                    assert!(
                        rhs.at(c, v).abs() < 1e-13,
                        "{scheme:?} cell {c:?} var {v}: {}",
                        rhs.at(c, v)
                    );
                }
            }
        }
    }

    #[test]
    fn uniform_mhd_state_preserved_with_powell() {
        let m = IdealMhd::new(5.0 / 3.0);
        let shape = FieldShape::new([6, 6], 2, 8);
        let field = uniform_block(&m, shape, &[1.0, 0.2, 0.1, -0.3, 0.5, 0.4, 0.6, 0.9]);
        let mut rhs = FieldBlock::zeros(shape);
        let mut scratch = Vec::new();
        compute_rhs_block(&m, Scheme::muscl_rusanov(), &field, [0.05, 0.05], &mut rhs, &mut scratch);
        for c in shape.interior_box().iter() {
            for v in 0..8 {
                assert!(rhs.at(c, v).abs() < 1e-12, "cell {c:?} var {v}: {}", rhs.at(c, v));
            }
        }
    }

    #[test]
    fn flux_count_matches_interfaces() {
        let e = Euler::<2>::new(1.4);
        let shape = FieldShape::new([4, 4], 2, 4);
        let field = uniform_block(&e, shape, &[1.0, 0.0, 0.0, 1.0]);
        let mut rhs = FieldBlock::zeros(shape);
        let mut scratch = Vec::new();
        let n = compute_rhs_block(&e, Scheme::first_order(), &field, [1.0, 1.0], &mut rhs, &mut scratch);
        // x: 5 interfaces * 4 rows; y: 5 * 4 columns
        assert_eq!(n, 40);
    }

    #[test]
    fn rhs_is_conservative_interior() {
        // The interior sum of the RHS telescopes to the boundary fluxes;
        // with periodic-identical ghosts on both sides the net is zero.
        let e = Euler::<1>::new(1.4);
        let shape = FieldShape::<1>::new([16], 2, 3);
        let mut field = FieldBlock::zeros(shape);
        // periodic-ish data: sin profile whose ghosts mirror the wrap
        let nvar = 3;
        let mut u = vec![0.0; nvar];
        for c in shape.ghosted_box().iter() {
            let x = (c[0].rem_euclid(16)) as f64 / 16.0;
            let w = [1.0 + 0.3 * (2.0 * std::f64::consts::PI * x).sin(), 0.7, 1.0];
            e.prim_to_cons(&w, &mut u);
            field.set_cell(c, &u);
        }
        let mut rhs = FieldBlock::zeros(shape);
        let mut scratch = Vec::new();
        compute_rhs_block(&e, Scheme::muscl_rusanov(), &field, [1.0 / 16.0], &mut rhs, &mut scratch);
        for v in 0..3 {
            let s = rhs.interior_sum(v);
            assert!(s.abs() < 1e-11, "var {v} rhs sum {s}");
        }
    }

    #[test]
    fn powell_source_activates_on_divb() {
        let m = IdealMhd::new(5.0 / 3.0);
        let shape = FieldShape::new([4, 4], 2, 8);
        let mut field = uniform_block(&m, shape, &[1.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]);
        // impose Bx = x -> divB = 1 everywhere
        for c in shape.ghosted_box().iter() {
            *field.at_mut(c, 4) = c[0] as f64 * 0.1;
        }
        let mut rhs = FieldBlock::zeros(shape);
        rhs.fill(0.0);
        add_powell_source(&m, &field, [0.1, 0.1], &mut rhs);
        // S_mx = -divB * Bx; divB = 1.0/0.1... central diff: (0.1)/(2*0.1)*2 = 1
        let c = [2i64, 2];
        let divb = 1.0;
        let bx = 0.2;
        assert!((rhs.at(c, 1) + divb * bx).abs() < 1e-12);
        // S_bx = -divB * vx = -0.5
        assert!((rhs.at(c, 4) + 0.5).abs() < 1e-12);
        // rho source is zero
        assert_eq!(rhs.at(c, 0), 0.0);
    }

    #[test]
    fn max_rate_scales_with_resolution() {
        let e = Euler::<2>::new(1.4);
        let shape = FieldShape::new([4, 4], 2, 4);
        let field = uniform_block(&e, shape, &[1.0, 0.0, 0.0, 1.0]);
        let r1 = max_rate_block(&e, &field, [0.1, 0.1]);
        let r2 = max_rate_block(&e, &field, [0.05, 0.05]);
        assert!((r2 / r1 - 2.0).abs() < 1e-12);
        let a = 1.4f64.sqrt();
        assert!((r1 - 2.0 * a / 0.1).abs() < 1e-10);
    }

    #[test]
    fn floors_applied_per_cell() {
        let e = Euler::<1>::new(1.4);
        let shape = FieldShape::<1>::new([8], 1, 3);
        let mut field = FieldBlock::zeros(shape);
        field.for_each_interior(|c, u| {
            u[0] = if c[0] == 3 { -1.0 } else { 1.0 };
            u[2] = 1.0;
        });
        let n = apply_floors_block(&e, &mut field);
        assert_eq!(n, 1);
        assert!(field.at([3], 0) > 0.0);
    }
}

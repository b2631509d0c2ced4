//! Golden digests of the ideal-MHD block kernels.
//!
//! The fuzzer's golden streams (`ablock-testkit`) run only Euler, and the
//! differential suites compare backends that share one kernel, so neither
//! notices a change to the MHD arithmetic itself. These digests do: each
//! is an FNV-1a 64 hash of the raw `f64` bits a kernel writes on
//! ghost-filled 3-D `IdealMhd` blast blocks —
//!
//! * `compute_rhs_block_fluxes`: the interior RHS, all six face-flux
//!   stores and the returned flux count, for first order and MUSCL ×
//!   {minmod, MC, van Leer}, each with Rusanov and with HLL;
//! * `max_rate_block`: every block's rate;
//! * `apply_floors_block`: the clamped interior and the clamp count, on
//!   blocks seeded with cells below the density and pressure floors;
//!
//! at m = 2, 4, 8 and 16, plus a padded-plane grid and a grid with an
//! immersed sphere (masked walls). Any refactor of these loops must keep
//! every digest; re-record (only for an intentional arithmetic change)
//! with `cargo test -p ablock-solver --test kernel_golden -- --ignored
//! --nocapture`.

use ablock_core::field::FieldBlock;
use ablock_core::geom::Geometry;
use ablock_core::ghost::GhostExchange;
use ablock_core::grid::{BlockGrid, GridParams};
use ablock_core::index::Face;
use ablock_core::layout::{Boundary, RootLayout};
use ablock_solver::kernel::{apply_floors_block, compute_rhs_block_fluxes, max_rate_block};
use ablock_solver::{
    ghost_config_for, problems, FaceFluxStore, IdealMhd, Limiter, Physics, Recon, Riemann, Scheme,
};
use ablock_testkit::Fnv64;

/// A grid variant the kernels are pinned on.
#[derive(Clone, Copy, Debug)]
enum Variant {
    Plain,
    /// Ghost and plane padding: the plane stride exceeds the ghosted volume.
    Padded,
    /// An immersed sphere cuts every block: walls, solid/solid faces and
    /// mask-aware slopes.
    Masked,
}

fn schemes() -> Vec<(String, Scheme)> {
    let mut out = Vec::new();
    for (rname, riemann) in [("rusanov", Riemann::Rusanov), ("hll", Riemann::Hll)] {
        for (lname, recon) in [
            ("first", Recon::FirstOrder),
            ("minmod", Recon::Muscl(Limiter::Minmod)),
            ("mc", Recon::Muscl(Limiter::MonotonizedCentral)),
            ("vanleer", Recon::Muscl(Limiter::VanLeer)),
        ] {
            out.push((format!("{lname}/{rname}"), Scheme { recon, riemann }));
        }
    }
    out
}

/// Off-centre MHD blast on a 2×2×1 periodic root lattice of `m³` blocks,
/// with a smooth velocity field and a perturbed B so every flux term is
/// live, ghosts filled (corners left unfilled: the kernels' ρ ≤ 0 guard
/// sees them).
fn blast_grid(m: i64, variant: Variant) -> (BlockGrid<3>, IdealMhd) {
    let phys = IdealMhd::new(5.0 / 3.0);
    let mut params = GridParams::new([m, m, m], 2, 8, 0);
    if matches!(variant, Variant::Padded) {
        params = params.with_pad(1).with_plane_pad(3);
    }
    let mut grid = BlockGrid::new(RootLayout::unit([2, 2, 1], Boundary::Periodic), params);
    // irrational-ish phases keep the coarse m = 2 samples off the sine's
    // symmetry points, so the limiters disagree there too
    let tau = 2.0 * std::f64::consts::PI;
    problems::set_initial(&mut grid, &phys, |x, w| {
        let r2: f64 = [x[0] - 0.45, x[1] - 0.55, x[2] - 0.5]
            .iter()
            .map(|d| d * d)
            .sum();
        w[0] = 1.0 + 0.25 * (tau * x[0] + 0.4).sin() * (tau * x[2] + 1.1).cos();
        w[1] = 0.4 * (tau * x[1] + 0.7).sin();
        w[2] = -0.3 * (tau * x[2] + 0.2).cos();
        w[3] = 0.2 * (tau * x[0] + 1.3).sin();
        w[4] = 1.0 / 2f64.sqrt() + 0.1 * (tau * x[2] + 0.9).cos();
        w[5] = 1.0 / 2f64.sqrt() - 0.1 * (tau * x[0] + 0.5).sin();
        w[6] = 0.15 * (tau * x[1] + 0.3).cos();
        w[7] = if r2 < 0.09 {
            10.0
        } else {
            0.1 + 0.02 * (tau * x[1] + 0.6).sin()
        };
    });
    if matches!(variant, Variant::Masked) {
        grid.set_geometry(Some(Geometry::sphere([0.5, 0.5, 0.5], 0.3)));
    }
    let plan = GhostExchange::build(&grid, ghost_config_for(&phys, Scheme::muscl_rusanov()));
    plan.fill(&mut grid);
    (grid, phys)
}

fn hash_interior(h: &mut Fnv64, f: &FieldBlock<3>) {
    let shape = *f.shape();
    for v in 0..shape.nvar {
        for c in shape.interior_box().iter() {
            h.write_u64(f.at(c, v).to_bits());
        }
    }
}

fn rhs_digest(grid: &BlockGrid<3>, phys: &IdealMhd, scheme: Scheme) -> u64 {
    let shape = grid.field_shape();
    let dims = grid.params().block_dims;
    let mut h = Fnv64::new();
    let mut scratch = Vec::new();
    for id in grid.block_ids() {
        let node = grid.block(id);
        let dx = grid.layout().cell_size(node.key().level, dims);
        let mut rhs = FieldBlock::zeros(shape);
        let mut store = FaceFluxStore::new(dims, phys.nvar());
        let n = compute_rhs_block_fluxes(
            phys,
            scheme,
            node.field(),
            dx,
            &mut rhs,
            &mut scratch,
            Some(&mut store),
        );
        h.write_u64(n as u64);
        hash_interior(&mut h, &rhs);
        for fi in 0..6 {
            for x in store.face(Face::from_index(fi)) {
                h.write_u64(x.to_bits());
            }
        }
    }
    h.finish()
}

fn rate_digest(grid: &BlockGrid<3>, phys: &IdealMhd) -> u64 {
    let dims = grid.params().block_dims;
    let mut h = Fnv64::new();
    for id in grid.block_ids() {
        let node = grid.block(id);
        let dx = grid.layout().cell_size(node.key().level, dims);
        h.write_u64(max_rate_block(phys, node.field(), dx).to_bits());
    }
    h.finish()
}

/// Knock a deterministic subset of interior cells below the floors —
/// negative density, energy below the kinetic + magnetic part, both —
/// then digest what `apply_floors_block` makes of every block.
fn floors_digest(grid: &mut BlockGrid<3>, phys: &IdealMhd) -> u64 {
    let mut h = Fnv64::new();
    let mut total = 0usize;
    for id in grid.block_ids() {
        let field = grid.block_mut(id).field_mut();
        let mut i = 0u64;
        field.for_each_interior(|_, u| {
            i += 1;
            match i % 7 {
                0 => u[0] = -0.25,
                3 => u[7] = 0.5 * u[7] - 20.0,
                5 if i % 2 == 1 => {
                    u[0] = 1e-14;
                    u[7] = -1.0;
                }
                _ => {}
            }
        });
        let n = apply_floors_block(phys, field);
        total += n;
        h.write_u64(n as u64);
        hash_interior(&mut h, field);
    }
    assert!(total > 0, "the seeded cells must trigger the floors");
    h.finish()
}

fn digests() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let cases: [(i64, Variant); 6] = [
        (2, Variant::Plain),
        (4, Variant::Plain),
        (8, Variant::Plain),
        (16, Variant::Plain),
        (4, Variant::Padded),
        (8, Variant::Masked),
    ];
    for (m, variant) in cases {
        let tag = format!("m{m}/{variant:?}").to_lowercase();
        let (mut grid, phys) = blast_grid(m, variant);
        for (name, scheme) in schemes() {
            out.push((
                format!("{tag}/rhs/{name}"),
                rhs_digest(&grid, &phys, scheme),
            ));
        }
        out.push((format!("{tag}/rate"), rate_digest(&grid, &phys)));
        out.push((format!("{tag}/floors"), floors_digest(&mut grid, &phys)));
    }
    out
}

/// Recorded on the scalar row loops; the padded grid must (and does)
/// reproduce the plain m = 4 digests, since only the layout differs.
const GOLDEN: &[(&str, u64)] = &[
    ("m2/plain/rhs/first/rusanov", 0xbe0265b43129d3b1),
    ("m2/plain/rhs/minmod/rusanov", 0xe0722dc17c8579c7),
    ("m2/plain/rhs/mc/rusanov", 0x3ee849e672790179),
    ("m2/plain/rhs/vanleer/rusanov", 0xe19a86e8fcd3a771),
    ("m2/plain/rhs/first/hll", 0x2ae343cb6a30f0b5),
    ("m2/plain/rhs/minmod/hll", 0x5ec895d3fd180a0c),
    ("m2/plain/rhs/mc/hll", 0xec77458fee6b5dae),
    ("m2/plain/rhs/vanleer/hll", 0x6f54c1ebad957eb5),
    ("m2/plain/rate", 0x9debf13aa98061e1),
    ("m2/plain/floors", 0x3df39552573916f5),
    ("m4/plain/rhs/first/rusanov", 0xcf96f615ca47e83e),
    ("m4/plain/rhs/minmod/rusanov", 0xf07bb24a582fc094),
    ("m4/plain/rhs/mc/rusanov", 0x420f29c556a7d616),
    ("m4/plain/rhs/vanleer/rusanov", 0x5bb02d977f7c97fe),
    ("m4/plain/rhs/first/hll", 0x17929d1a20375403),
    ("m4/plain/rhs/minmod/hll", 0xe1fbc2808f15ecf7),
    ("m4/plain/rhs/mc/hll", 0x8231cc921803e3a5),
    ("m4/plain/rhs/vanleer/hll", 0xa3cb102631cb7af9),
    ("m4/plain/rate", 0x304a8c5292ac3d0d),
    ("m4/plain/floors", 0x60d4d9a22700d7bc),
    ("m8/plain/rhs/first/rusanov", 0x3f097ea796799c6b),
    ("m8/plain/rhs/minmod/rusanov", 0x5508d14c67568bc1),
    ("m8/plain/rhs/mc/rusanov", 0x54c5577a505ef035),
    ("m8/plain/rhs/vanleer/rusanov", 0xc6924490b8c88c91),
    ("m8/plain/rhs/first/hll", 0x57bf12696c3dd4de),
    ("m8/plain/rhs/minmod/hll", 0x93c77d12c4288d7c),
    ("m8/plain/rhs/mc/hll", 0x5ddae501b01609f9),
    ("m8/plain/rhs/vanleer/hll", 0xa461c584f0e29cf2),
    ("m8/plain/rate", 0x22b735e3dc3a2bac),
    ("m8/plain/floors", 0xf4236b0dd9d4f05b),
    ("m16/plain/rhs/first/rusanov", 0x9fdd3576b679c7be),
    ("m16/plain/rhs/minmod/rusanov", 0xc8ef82dd3f60491d),
    ("m16/plain/rhs/mc/rusanov", 0xe2b65baee7747825),
    ("m16/plain/rhs/vanleer/rusanov", 0x31a7ae9ac31d4229),
    ("m16/plain/rhs/first/hll", 0x2238120b614d68c4),
    ("m16/plain/rhs/minmod/hll", 0x30222a2ea2899d73),
    ("m16/plain/rhs/mc/hll", 0x3fc9994ee8dcdb1d),
    ("m16/plain/rhs/vanleer/hll", 0x54436361c665c07a),
    ("m16/plain/rate", 0x1dc03745fd47453c),
    ("m16/plain/floors", 0x868ed31ca646fecc),
    ("m4/padded/rhs/first/rusanov", 0xcf96f615ca47e83e),
    ("m4/padded/rhs/minmod/rusanov", 0xf07bb24a582fc094),
    ("m4/padded/rhs/mc/rusanov", 0x420f29c556a7d616),
    ("m4/padded/rhs/vanleer/rusanov", 0x5bb02d977f7c97fe),
    ("m4/padded/rhs/first/hll", 0x17929d1a20375403),
    ("m4/padded/rhs/minmod/hll", 0xe1fbc2808f15ecf7),
    ("m4/padded/rhs/mc/hll", 0x8231cc921803e3a5),
    ("m4/padded/rhs/vanleer/hll", 0xa3cb102631cb7af9),
    ("m4/padded/rate", 0x304a8c5292ac3d0d),
    ("m4/padded/floors", 0x60d4d9a22700d7bc),
    ("m8/masked/rhs/first/rusanov", 0xd7b66dfd47df85ea),
    ("m8/masked/rhs/minmod/rusanov", 0x219e187aa1597664),
    ("m8/masked/rhs/mc/rusanov", 0x768c8e9194284044),
    ("m8/masked/rhs/vanleer/rusanov", 0xebd9350c14f5afd2),
    ("m8/masked/rhs/first/hll", 0x244133ff2bcae5fa),
    ("m8/masked/rhs/minmod/hll", 0x9a79829d5096d42b),
    ("m8/masked/rhs/mc/hll", 0xbc3d70de9f6dff6d),
    ("m8/masked/rhs/vanleer/hll", 0x8579de703d4fd33e),
    ("m8/masked/rate", 0x94a129488a3b934c),
    ("m8/masked/floors", 0x226ac7b6eec4d016),
];

#[test]
fn mhd_kernels_reproduce_golden_digests() {
    let got = digests();
    assert_eq!(got.len(), GOLDEN.len(), "case list changed");
    let mut bad = Vec::new();
    for ((name, d), (gname, gd)) in got.iter().zip(GOLDEN) {
        assert_eq!(name, gname, "case order changed");
        if d != gd {
            bad.push(format!("{name}: got {d:#018x}, recorded {gd:#018x}"));
        }
    }
    assert!(
        bad.is_empty(),
        "MHD kernel arithmetic changed:\n{}",
        bad.join("\n")
    );
}

#[test]
#[ignore = "recording mode: prints the GOLDEN table"]
fn record_golden_digests() {
    for (name, d) in digests() {
        println!("    (\"{name}\", {d:#018x}),");
    }
}

//! Layout-independent golden state digests.
//!
//! A grid digest canonicalizes a [`BlockGrid`] into a single `u64`
//! independent of how block fields are stored in memory: leaves are
//! visited in sorted-key order, each contributing its level, lattice
//! coordinates, and every interior cell in `interior_box()` iteration
//! order with the variable index innermost, hashing the raw `f64` bits.
//! Any two storage layouts that hold the same physics state produce the
//! same digest; any single flipped bit changes it.
//!
//! The digests recorded in [`GOLDEN_CASES`] were captured from seeded
//! fuzzer schedules on the original interleaved layout
//! (AoS, `idx = lin * nvar + v`) and are the reference stream for layout
//! refactors: a new layout must reproduce them bit for bit (see
//! [`crate::commands::run_script_digest`] and the `golden_digests`
//! integration test). Re-record by running the `golden_digests` test
//! binary with `-- --ignored --nocapture` only when a change
//! *intentionally* alters the arithmetic stream.

use ablock_core::grid::BlockGrid;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a 64 hasher (same function family the snapshot layer
/// uses for content addressing, kept separate so testkit stays oracle-
/// independent of `ablock-io` internals).
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv64(FNV_OFFSET)
    }

    /// Absorb raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorb a `u64` (little-endian bytes).
    pub fn write_u64(&mut self, x: u64) {
        self.write(&x.to_le_bytes());
    }

    /// Current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

/// Canonical layout-independent digest of a grid's physics state: leaves
/// in sorted-key order, per leaf the level + coords, then every interior
/// cell in `interior_box()` iteration order, variables innermost, as raw
/// `f64` bits.
pub fn grid_digest<const D: usize>(grid: &BlockGrid<D>) -> u64 {
    let mut keys: Vec<_> = grid.blocks().map(|(_, node)| node.key()).collect();
    keys.sort();
    let mut h = Fnv64::new();
    for key in keys {
        let id = grid.find(key).expect("key just enumerated from the grid");
        let f = grid.block(id).field();
        h.write(&[key.level]);
        for d in 0..D {
            h.write_u64(key.coords[d] as u64);
        }
        for c in f.shape().interior_box().iter() {
            for v in 0..f.shape().nvar {
                h.write_u64(f.at(c, v).to_bits());
            }
        }
    }
    h.finish()
}

/// One recorded golden schedule: a fuzzer world seed, a script in
/// [`crate::commands::format_script`] text form, and the digest stream
/// value the schedule must reproduce.
#[derive(Clone, Copy, Debug)]
pub struct GoldenCase {
    /// Grid dimensionality the case runs in (1, 2, or 3).
    pub dim: usize,
    /// World-derivation seed (see [`crate::commands::derive_setup`]).
    pub seed: u64,
    /// Script text, parseable by [`crate::commands::parse_script`].
    pub script: &'static str,
    /// Expected stream digest from [`crate::commands::run_script_digest`].
    pub digest: u64,
}

/// Golden schedules recorded on the pre-refactor AoS layout. The scripts
/// deliberately mix structural commands (refine/coarsen/adapt), serial
/// and parallel RK2 steps (`O`, and its alias `N` from when it selected
/// a non-overlapped variant), ghost fills, checkpoint
/// roundtrips, and content-addressed snapshots, so the stream pins the
/// full hot path — reconstruction, Riemann fluxes, update loops, ghost
/// transfer operators, and both serialization formats.
pub const GOLDEN_CASES: &[GoldenCase] = &[
    GoldenCase {
        dim: 1,
        seed: 0x601D_0001,
        script: "R1 S A2a:30 S O K S G P S",
        digest: 0x0138_5d4c_5c77_2af4,
    },
    GoldenCase {
        dim: 1,
        seed: 0x601D_0002,
        script: "A7:25 S C2 N S K O S",
        digest: 0x5715_6f78_c69d_cabf,
    },
    GoldenCase {
        dim: 2,
        seed: 0x601D_0003,
        script: "A1f:25 S G O R7 S K C3 N P S",
        digest: 0x4008_b10c_0f64_6fe4,
    },
    GoldenCase {
        dim: 2,
        seed: 0x601D_0004,
        script: "R2 R11 S O A3c:20 S P N S K S",
        digest: 0x0523_844e_6acb_e7a7,
    },
    GoldenCase {
        dim: 3,
        seed: 0x601D_0005,
        script: "A9:20 S N P S",
        digest: 0x6521_61bf_56ef_a662,
    },
    GoldenCase {
        dim: 3,
        seed: 0x601D_0006,
        script: "R5 S O K G S",
        digest: 0x2637_d9e9_210d_199a,
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use ablock_core::grid::{BlockGrid, GridParams};
    use ablock_core::layout::{Boundary, RootLayout};

    fn small_grid() -> BlockGrid<2> {
        let mut g = BlockGrid::new(
            RootLayout::unit([2, 1], Boundary::Periodic),
            GridParams::new([4, 4], 2, 3, 2),
        );
        let mut x = 0.0;
        for (_, node) in g.blocks_mut() {
            node.field_mut().for_each_interior(|_, u| {
                for v in u.iter_mut() {
                    x += 1.0;
                    *v = x;
                }
            });
        }
        g
    }

    #[test]
    fn digest_is_deterministic_and_bit_sensitive() {
        let g = small_grid();
        let d0 = grid_digest(&g);
        assert_eq!(d0, grid_digest(&g));

        let mut g2 = small_grid();
        let id = g2.block_ids()[0];
        let c = g2.block(id).field().shape().interior_box().lo;
        let old = g2.block(id).field().at(c, 0);
        *g2.block_mut(id).field_mut().at_mut(c, 0) = f64::from_bits(old.to_bits() ^ 1);
        assert_ne!(d0, grid_digest(&g2), "single flipped mantissa bit must change digest");
    }

    #[test]
    fn digest_ignores_ghost_cells() {
        let g = small_grid();
        let d0 = grid_digest(&g);
        let mut g2 = small_grid();
        for (_, node) in g2.blocks_mut() {
            let f = node.field_mut();
            let interior = f.shape().interior_box();
            for c in f.shape().ghosted_box().iter() {
                if !interior.contains(c) {
                    *f.at_mut(c, 0) = 1e300;
                }
            }
        }
        assert_eq!(d0, grid_digest(&g2), "ghost cells must not enter the digest");
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a 64 published test vector: "a" -> 0xaf63dc4c8601ec8c
        let mut h = Fnv64::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}

//! The paper's §8.2 storage accounting: how many bytes a summary counts
//! as, not a layout anything writes.
//!
//! The paper stores each 4-dimensional skeletal cell in **23 bytes**:
//! position 16 B (4 × i32), status 1 B, density (population) 4 B, and a
//! 2-byte connection bitmask. [`bytes_per_cell`] generalizes that to
//! `4·d + 7` bytes; for `d = 4` it is exactly 23. A bitmask of adjacent
//! cells cannot hold a summary's connections, which reach further (see
//! [`crate::sgs`]), so summaries are stored and sent losslessly in
//! [`crate::codec`]. This count is what the archive *reports*
//! (`archive_bytes_per_cluster`) and what §6.1's level choice
//! ([`crate::multires::archived_bytes_at_level`]) budgets against.
//!
//! A summary held in memory ([`crate::Cells`]) comes close to this
//! count: `4·d + 8` bytes per cell, the same position and population,
//! with a 4-byte connection run end in place of the 2-byte bitmask and
//! the status in that word's top bit, plus 4 bytes per connection in
//! the run itself.

use crate::sgs::Sgs;

/// Bytes for the per-summary header: dim (u8), level (u8), cell count
/// (u32), side length (f64).
const HEADER_BYTES: usize = 1 + 1 + 4 + 8;

/// Counted bytes per cell: `4·dim` position + 1 status + 4 population +
/// 2 connection bits. 23 bytes for the paper's 4-d experiments.
pub const fn bytes_per_cell(dim: usize) -> usize {
    4 * dim + 1 + 4 + 2
}

/// Counted size of a `dim`-dimensional summary of `cells` cells (header
/// + cells) — the one §8.2 formula every byte count goes through.
pub const fn summary_bytes(cells: usize, dim: usize) -> usize {
    HEADER_BYTES + cells * bytes_per_cell(dim)
}

/// Counted size of a summary: [`summary_bytes`] of its cells.
pub fn archived_bytes(sgs: &Sgs) -> usize {
    summary_bytes(sgs.cells.len(), sgs.dim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::member::MemberSet;
    use sgs_core::GridGeometry;

    #[test]
    fn paper_cell_size_is_23_bytes_in_4d() {
        assert_eq!(bytes_per_cell(4), 23);
        assert_eq!(bytes_per_cell(2), 15);
    }

    #[test]
    fn compression_rate_is_high_for_dense_clusters() {
        // Fig. 8 / §8.2: SGS ≈ 98 % smaller than the full representation.
        let cores: Vec<Box<[f64]>> = (0..2000)
            .map(|i| {
                let x = (i % 50) as f64 * 0.05;
                let y = (i / 50) as f64 * 0.05;
                vec![x, y].into()
            })
            .collect();
        let members = MemberSet::new(cores, vec![]);
        let sgs = Sgs::from_members(&members, &GridGeometry::basic(2, 0.5));
        let full = members.full_repr_bytes();
        let summary = archived_bytes(&sgs);
        let rate = 1.0 - summary as f64 / full as f64;
        assert!(rate > 0.9, "compression rate {rate}");
    }
}

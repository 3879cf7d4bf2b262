//! The paper's archived cell layout — reproducing the §8.2 storage
//! accounting exactly.
//!
//! The paper stores each 4-dimensional skeletal cell in **23 bytes**:
//! position 16 B (4 × i32), status 1 B, density (population) 4 B, and a
//! 2-byte connection bitmask. [`bytes_per_cell`] generalizes the layout to
//! `4·d + 7` bytes; for `d = 4` that is exactly 23. The bitmask covers only
//! the `2·d` face-adjacent directions (d ≤ 8), while a summary's
//! connections reach further (see [`crate::sgs`]); and a connection records
//! neighbourship between member objects, which cell geometry does not
//! determine, so what the mask drops cannot be recomputed. The layout is
//! therefore what the archive *counts* (`archive_bytes_per_cluster`, the
//! byte-budget retention), not a form anything is stored in: summaries
//! are stored and sent losslessly in [`crate::codec`].

use bytes::{BufMut, Bytes, BytesMut};

use crate::sgs::{CellStatus, Sgs, SkeletalCell};

/// Bytes for the per-summary header: dim (u8), level (u8), cell count
/// (u32), side length (f64).
pub const HEADER_BYTES: usize = 1 + 1 + 4 + 8;

/// Archived bytes per cell: `4·dim` position + 1 status + 4 population +
/// 2 connection bits. 23 bytes for the paper's 4-d experiments.
pub const fn bytes_per_cell(dim: usize) -> usize {
    4 * dim + 1 + 4 + 2
}

/// Total archived size of a summary (header + cells).
pub fn archived_bytes(sgs: &Sgs) -> usize {
    HEADER_BYTES + sgs.cells.len() * bytes_per_cell(sgs.dim)
}

/// Encode a summary in the §8.2 layout: its face connections only (see
/// the module docs), in exactly [`archived_bytes`] bytes.
///
/// # Panics
/// Panics if `dim > 8` (the face bitmask holds at most 16 directions).
pub fn encode(sgs: &Sgs) -> Bytes {
    assert!(sgs.dim <= 8, "packed layout supports at most 8 dimensions");
    let mut buf = BytesMut::with_capacity(archived_bytes(sgs));
    buf.put_u8(sgs.dim as u8);
    buf.put_u8(sgs.level);
    buf.put_u32_le(sgs.cells.len() as u32);
    buf.put_f64_le(sgs.side);
    for cell in &sgs.cells {
        for &c in cell.coord.0.iter() {
            buf.put_i32_le(c);
        }
        buf.put_u8(match cell.status {
            CellStatus::Core => 1,
            CellStatus::Edge => 0,
        });
        buf.put_u32_le(cell.population);
        buf.put_u16_le(face_mask(sgs, cell));
    }
    buf.freeze()
}

/// Face-adjacency bitmask of one cell's connections.
fn face_mask(sgs: &Sgs, cell: &SkeletalCell) -> u16 {
    let mut mask = 0u16;
    for &conn in &cell.connections {
        let other = &sgs.cells[conn as usize].coord;
        // Face adjacency: differs by ±1 on exactly one dimension.
        let mut axis = None;
        let mut ok = true;
        for (k, (a, b)) in cell.coord.0.iter().zip(other.0.iter()).enumerate() {
            match b - a {
                0 => {}
                1 | -1 if axis.is_none() => axis = Some((k, b - a)),
                _ => {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            if let Some((k, dir)) = axis {
                let bit = 2 * k + usize::from(dir == 1);
                mask |= 1 << bit;
            }
        }
    }
    mask
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

    fn sample() -> Sgs {
        let cores: Vec<Box<[f64]>> = (0..8)
            .map(|i| vec![0.05 + i as f64 * 0.35, 0.05].into())
            .collect();
        Sgs::from_members(&MemberSet::new(cores, vec![]), &GridGeometry::basic(2, 1.0))
    }

    #[test]
    fn encode_length_matches_accounting() {
        let s = sample();
        let bytes = encode(&s);
        assert_eq!(bytes.len(), archived_bytes(&s));
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

//! The archived byte layout of skeletal grid cells — reproducing the §8.2
//! storage accounting exactly.
//!
//! The paper stores each 4-dimensional skeletal cell in **23 bytes**:
//! position 16 B (4 × i32), status 1 B, density (population) 4 B, and a
//! 2-byte connection bitmask. [`bytes_per_cell`] generalizes the layout to
//! `4·d + 7` bytes; for `d = 4` that is exactly 23. The bitmask covers the
//! `2·d` face-adjacent directions (d ≤ 8) — longer-range connections are
//! recomputable from cell geometry on load and are not archived, matching
//! the paper's byte budget.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use sgs_core::CellCoord;
use sgs_index::FxHashMap;

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

/// One cell in packed form — used by tests and decoding; encoding streams
/// straight from [`Sgs`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PackedCell {
    /// Integer cell coordinate.
    pub coord: Box<[i32]>,
    /// 0 = edge, 1 = core.
    pub status: u8,
    /// Member count.
    pub population: u32,
    /// Face-adjacency bits: bit `2k` = neighbor at `coord[k] - 1`,
    /// bit `2k+1` = neighbor at `coord[k] + 1`.
    pub connections: u16,
}

/// Encode a summary into its archived byte representation.
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

/// Decode an archived summary. Connections are reconstructed from the face
/// bitmask (only face-adjacent connections are archived; see module docs).
///
/// Returns `None` if the buffer is truncated or malformed: a `dim`
/// outside `1..=8` (what [`encode`] writes — the face mask has 16 bits),
/// a side length that is not a positive finite number, or fewer bytes
/// than the cell count announces. A face bit pointing past the `i32`
/// range names no cell and is dropped, like one naming an absent cell.
pub fn decode(mut buf: Bytes) -> Option<Sgs> {
    if buf.remaining() < HEADER_BYTES {
        return None;
    }
    let dim = buf.get_u8() as usize;
    let level = buf.get_u8();
    let count = buf.get_u32_le() as usize;
    let side = buf.get_f64_le();
    if !(1..=8).contains(&dim)
        || !side.is_finite()
        || side <= 0.0
        || buf.remaining() < count * bytes_per_cell(dim)
    {
        return None;
    }
    let mut packed = Vec::with_capacity(count);
    for _ in 0..count {
        let coord: Box<[i32]> = (0..dim).map(|_| buf.get_i32_le()).collect();
        let status = buf.get_u8();
        let population = buf.get_u32_le();
        let connections = buf.get_u16_le();
        packed.push(PackedCell {
            coord,
            status,
            population,
            connections,
        });
    }
    // Resolve face bits to indices.
    let index_of: FxHashMap<&[i32], u32> = packed
        .iter()
        .enumerate()
        .map(|(i, c)| (c.coord.as_ref(), i as u32))
        .collect();
    let cells = packed
        .iter()
        .map(|p| {
            let mut connections = Vec::new();
            for k in 0..dim {
                for (bit, dir) in [(2 * k, -1i32), (2 * k + 1, 1)] {
                    if p.connections & (1 << bit) == 0 {
                        continue;
                    }
                    let Some(shifted) = p.coord[k].checked_add(dir) else {
                        continue;
                    };
                    let mut nb = p.coord.to_vec();
                    nb[k] = shifted;
                    if let Some(&j) = index_of.get(nb.as_slice()) {
                        connections.push(j);
                    }
                }
            }
            connections.sort_unstable();
            SkeletalCell {
                coord: CellCoord(p.coord.clone()),
                population: p.population,
                status: if p.status == 1 {
                    CellStatus::Core
                } else {
                    CellStatus::Edge
                },
                connections,
            }
        })
        .collect();
    Some(Sgs {
        dim,
        side,
        level,
        cells,
    })
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
    fn roundtrip_preserves_cells_and_face_connections() {
        let s = sample();
        let decoded = decode(encode(&s)).unwrap();
        assert_eq!(decoded.dim, s.dim);
        assert_eq!(decoded.level, s.level);
        assert_eq!(decoded.side, s.side);
        assert_eq!(decoded.cells.len(), s.cells.len());
        for (a, b) in s.cells.iter().zip(decoded.cells.iter()) {
            assert_eq!(a.coord, b.coord);
            assert_eq!(a.status, b.status);
            assert_eq!(a.population, b.population);
            // Face-adjacent connections survive; others may be dropped.
            let face_conns: Vec<u32> = a
                .connections
                .iter()
                .copied()
                .filter(|&j| {
                    let d: i32 = a
                        .coord
                        .0
                        .iter()
                        .zip(s.cells[j as usize].coord.0.iter())
                        .map(|(x, y)| (x - y).abs())
                        .sum();
                    d == 1
                })
                .collect();
            assert_eq!(b.connections, face_conns);
        }
    }

    #[test]
    fn decode_rejects_truncation() {
        let s = sample();
        let bytes = encode(&s);
        assert!(decode(bytes.slice(0..bytes.len() - 1)).is_none());
        assert!(decode(bytes.slice(0..4)).is_none());
        assert!(decode(Bytes::new()).is_none());
    }

    #[test]
    fn decode_rejects_what_encode_cannot_write_without_panicking() {
        let s = sample();
        let bytes = encode(&s).to_vec();
        // Every dimensionality the 16-bit face mask cannot describe.
        // Padded so the announced cells fit whatever `dim` claims.
        for dim in 9..=255u8 {
            let mut patched = bytes.clone();
            patched[0] = dim;
            patched.resize(
                HEADER_BYTES + s.cells.len() * bytes_per_cell(dim as usize),
                0xff,
            );
            assert!(decode(Bytes::from(patched)).is_none(), "dim {dim}");
        }
        for side in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 0.0, -1.0] {
            let mut patched = bytes.clone();
            patched[6..14].copy_from_slice(&side.to_le_bytes());
            assert!(decode(Bytes::from(patched)).is_none(), "side {side}");
        }
        // A cell on the last column of the grid claiming a `+1`
        // neighbour on that axis (and its mirror image): no such cell
        // can exist, so the bits resolve to nothing.
        for (edge, bit) in [(i32::MAX, 0b10u16), (i32::MIN, 0b01)] {
            let mut patched = bytes.clone();
            patched[HEADER_BYTES..HEADER_BYTES + 4].copy_from_slice(&edge.to_le_bytes());
            let mask_at = HEADER_BYTES + bytes_per_cell(s.dim) - 2;
            patched[mask_at..mask_at + 2].copy_from_slice(&bit.to_le_bytes());
            let decoded = decode(Bytes::from(patched)).expect("structurally valid");
            assert_eq!(decoded.cells[0].coord.0[0], edge);
            assert!(decoded.cells[0].connections.is_empty());
        }
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

//! The one encoding of an [`Sgs`], lossless and input-checked: the wire
//! sends summaries in it (`DESIGN.md` §9) and the durable archive stores
//! them in it (§10), so a summary crossing either comes back whole.
//!
//! ```text
//! sgs := dim:u16 level:u8 side:f64 cells:seq(cell)
//! cell := coord:i32×dim population:u32 status:u8 connections:seq(u32)
//! ```
//!
//! Scalars are little-endian; a `seq` is a `u32` count, then its elements;
//! `status` is `1` for core, `0` for edge. Decoding never panics, and it
//! bounds every count by the bytes left before allocating.

use crate::sgs::{end_word, CellStatus, Cells, Sgs, CORE};

/// Why a byte sequence is not an encoded summary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The bytes ended before the grammar was satisfied, or a count
    /// announces more elements than the bytes left can hold.
    Truncated,
    /// A field violated its invariant (zero dimensionality, a cell side
    /// that is not a positive finite number, an unknown status code, a
    /// connection naming no cell).
    Invalid(&'static str),
}

/// Header bytes: dim, level, side, cell count.
const HEADER: usize = 2 + 1 + 8 + 4;

/// Bytes of one cell with no connections: coordinate, population,
/// status, connection count.
const fn bare_cell(dim: usize) -> usize {
    4 * dim + 4 + 1 + 4
}

/// Exact length of [`encode`]'s output for `sgs`.
pub fn encoded_len(sgs: &Sgs) -> usize {
    let conns: usize = sgs.cells.iter().map(|c| c.connections.len()).sum();
    HEADER + sgs.cells.len() * bare_cell(sgs.dim) + 4 * conns
}

/// Append the encoding of `sgs` to `out`.
pub fn encode(sgs: &Sgs, out: &mut Vec<u8>) {
    out.reserve(encoded_len(sgs));
    out.extend_from_slice(&(sgs.dim as u16).to_le_bytes());
    out.push(sgs.level);
    out.extend_from_slice(&sgs.side.to_le_bytes());
    out.extend_from_slice(&(sgs.cells.len() as u32).to_le_bytes());
    for cell in &sgs.cells {
        for &c in cell.coord {
            out.extend_from_slice(&c.to_le_bytes());
        }
        out.extend_from_slice(&cell.population.to_le_bytes());
        out.push(match cell.status {
            CellStatus::Core => 1,
            CellStatus::Edge => 0,
        });
        out.extend_from_slice(&(cell.connections.len() as u32).to_le_bytes());
        for &conn in cell.connections {
            out.extend_from_slice(&conn.to_le_bytes());
        }
    }
}

/// The next `N` bytes of `buf`, consumed.
fn take<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], DecodeError> {
    let (head, tail) = buf.split_first_chunk::<N>().ok_or(DecodeError::Truncated)?;
    *buf = tail;
    Ok(*head)
}

/// A `u32` element count, refused unless the bytes left can hold that
/// many elements of at least `min_elem_bytes` each.
fn count(buf: &mut &[u8], min_elem_bytes: usize) -> Result<usize, DecodeError> {
    let n = u32::from_le_bytes(take(buf)?) as usize;
    if n.saturating_mul(min_elem_bytes) > buf.len() {
        return Err(DecodeError::Truncated);
    }
    Ok(n)
}

/// The next `N` bytes of `buf`, which [`decode`]'s first pass has
/// checked are there.
fn read<const N: usize>(buf: &mut &[u8]) -> [u8; N] {
    take(buf).expect("checked by the first pass")
}

/// Decode one summary off the front of `buf`, advancing it past the
/// summary's bytes. Whatever follows is left for the caller.
///
/// A first pass checks every field and counts the connections; then the
/// checked bytes are read twice over, once into the coordinate column and
/// once into the word block of the cells and their connections, each
/// allocated once at its exact length.
pub fn decode(buf: &mut &[u8]) -> Result<Sgs, DecodeError> {
    let dim = u16::from_le_bytes(take(buf)?) as usize;
    if dim == 0 {
        return Err(DecodeError::Invalid("zero-dimensional summary"));
    }
    let [level] = take(buf)?;
    let side = f64::from_le_bytes(take(buf)?);
    if !(side.is_finite() && side > 0.0) {
        return Err(DecodeError::Invalid("non-positive cell side"));
    }
    let n_cells = count(buf, bare_cell(dim))?;
    let body = *buf;
    let mut n_conns = 0usize;
    for _ in 0..n_cells {
        // Past the coordinate and the population, which any bytes are.
        *buf = buf.get(4 * dim + 4..).ok_or(DecodeError::Truncated)?;
        if !matches!(take(buf)?, [0 | 1]) {
            return Err(DecodeError::Invalid("cell status code"));
        }
        let n = count(buf, 4)?;
        for _ in 0..n {
            if u32::from_le_bytes(take(buf)?) as usize >= n_cells {
                return Err(DecodeError::Invalid("connection index out of range"));
            }
        }
        n_conns += n;
    }
    if n_conns >= CORE as usize {
        return Err(DecodeError::Invalid("2^31 connections or more"));
    }

    // The dimensionality, then the coordinates, each cell's read after
    // skipping the rest of the cell before it.
    let (dim_word, n_word) = (n_cells > 0)
        .then_some((dim as i32, n_cells as u32))
        .unzip();
    let (mut at, mut left) = (body, dim);
    let coords = (0..n_cells * dim).map(|_| {
        if left == 0 {
            at = &at[4 + 1..];
            let n = u32::from_le_bytes(read(&mut at));
            at = &at[4 * n as usize..];
            left = dim;
        }
        left -= 1;
        i32::from_le_bytes(read(&mut at))
    });
    let coords = dim_word.into_iter().chain(coords).collect();
    // The cell count, each cell's population and run-end word, then the
    // connections, each cell's run read after skipping the cells before
    // it that have none left.
    let (mut at, mut end, mut run_end) = (body, 0u32, None);
    let cell_words = (0..2 * n_cells).map(|_| {
        if let Some(word) = run_end.take() {
            return word;
        }
        at = &at[4 * dim..];
        let population = u32::from_le_bytes(read(&mut at));
        let status = match read(&mut at) {
            [1] => CellStatus::Core,
            _ => CellStatus::Edge,
        };
        let n = u32::from_le_bytes(read(&mut at));
        at = &at[4 * n as usize..];
        end += n;
        run_end = Some(end_word(end, status));
        population
    });
    let (mut at, mut left) = (body, 0u32);
    let connections = (0..n_conns).map(|_| {
        while left == 0 {
            at = &at[bare_cell(dim) - 4..];
            left = u32::from_le_bytes(read(&mut at));
        }
        left -= 1;
        u32::from_le_bytes(read(&mut at))
    });
    let words = n_word.into_iter().chain(cell_words).chain(connections);
    let cells = Cells::from_parts(coords, words.collect());
    Ok(Sgs {
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
    use crate::sgs::CellsBuilder;
    use sgs_core::GridGeometry;

    /// A 2-d summary whose connections reach past face neighbours: the
    /// basic grid links core cells up to `⌈√d⌉` cells apart.
    fn sample() -> Sgs {
        let cores: Vec<Box<[f64]>> = (0..40)
            .map(|i| vec![0.05 + (i % 8) as f64 * 0.3, 0.05 + (i / 8) as f64 * 0.3].into())
            .collect();
        let edges: Vec<Box<[f64]>> = vec![vec![2.6, 1.6].into()];
        Sgs::from_members(&MemberSet::new(cores, edges), &GridGeometry::basic(2, 1.0))
    }

    fn encoded(sgs: &Sgs) -> Vec<u8> {
        let mut out = Vec::new();
        encode(sgs, &mut out);
        out
    }

    #[test]
    fn roundtrip_is_lossless_and_length_exact() {
        let s = sample();
        let diagonal = s.cells.iter().any(|c| {
            c.connections.iter().any(|&j| {
                let other = s.cells.get(j as usize).unwrap().coord;
                let steps: i32 = c
                    .coord
                    .iter()
                    .zip(other.iter())
                    .map(|(a, b)| (a - b).abs())
                    .sum();
                steps > 1
            })
        });
        assert!(diagonal, "the sample must hold a non-face connection");
        let mut bytes = encoded(&s);
        assert_eq!(bytes.len(), encoded_len(&s));
        bytes.extend_from_slice(b"next");
        let mut rest = &bytes[..];
        assert_eq!(decode(&mut rest), Ok(s));
        assert_eq!(rest, b"next", "decode consumes exactly the summary");
    }

    #[test]
    fn decode_rejects_truncation() {
        let bytes = encoded(&sample());
        for cut in 0..bytes.len() {
            assert_eq!(
                decode(&mut &bytes[..cut]),
                Err(DecodeError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn decode_rejects_invalid_fields_without_panicking() {
        let s = sample();
        let bytes = encoded(&s);
        let patched = |at: usize, with: &[u8]| {
            let mut b = bytes.clone();
            b[at..at + with.len()].copy_from_slice(with);
            decode(&mut &b[..])
        };
        assert!(matches!(
            patched(0, &0u16.to_le_bytes()),
            Err(DecodeError::Invalid(_))
        ));
        for side in [f64::INFINITY, f64::NAN, 0.0, -1.0] {
            assert!(
                matches!(
                    patched(3, &side.to_le_bytes()),
                    Err(DecodeError::Invalid(_))
                ),
                "side {side}"
            );
        }
        let status_at = HEADER + 4 * s.dim + 4;
        assert!(matches!(
            patched(status_at, &[2]),
            Err(DecodeError::Invalid(_))
        ));
        // The first connection of the first cell, pointed past the last cell.
        let conn_at = status_at + 1 + 4;
        let past = (s.cells.len() as u32).to_le_bytes();
        assert!(!s.cells.get(0).unwrap().connections.is_empty());
        assert!(matches!(
            patched(conn_at, &past),
            Err(DecodeError::Invalid(_))
        ));
        // A cell count no remaining bytes could hold.
        assert_eq!(
            patched(11, &u32::MAX.to_le_bytes()),
            Err(DecodeError::Truncated)
        );
    }

    #[test]
    fn any_dimensionality_roundtrips() {
        for dim in [1usize, 4, 9, 16] {
            let coord = |k: i32| (0..dim as i32).map(|d| k + d).collect::<Vec<_>>();
            let mut list = CellsBuilder::default();
            list.push(&coord(0), 3, CellStatus::Core, [1]);
            list.push(&coord(2), 1, CellStatus::Edge, []);
            let s = Sgs {
                dim,
                side: 0.25,
                level: 2,
                cells: list.build(),
            };
            assert_eq!(decode(&mut &encoded(&s)[..]), Ok(s), "dim {dim}");
        }
    }

    #[test]
    fn runs_out_of_order_decode_but_do_not_validate() {
        // Three 1-d core cells; cell 0 connects to cells 1 and 2 through
        // `run`, the others to cell 0.
        let bytes = |run: [u32; 2]| {
            let mut b = Vec::new();
            b.extend_from_slice(&1u16.to_le_bytes());
            b.push(0);
            b.extend_from_slice(&1.0f64.to_le_bytes());
            b.extend_from_slice(&3u32.to_le_bytes());
            let runs: [&[u32]; 3] = [&run, &[0], &[0]];
            for (x, run) in (0i32..).zip(runs) {
                b.extend_from_slice(&x.to_le_bytes());
                b.extend_from_slice(&1u32.to_le_bytes());
                b.push(1);
                b.extend_from_slice(&(run.len() as u32).to_le_bytes());
                for &j in run {
                    b.extend_from_slice(&j.to_le_bytes());
                }
            }
            b
        };
        decode(&mut &bytes([1, 2])[..]).unwrap().validate().unwrap();
        for run in [[2, 1], [1, 1]] {
            let sgs = decode(&mut &bytes(run)[..]).unwrap();
            assert_eq!(sgs.cells.get(0).unwrap().connections, run, "kept as sent");
            assert!(sgs.validate().is_err(), "{run:?}");
        }
    }
}

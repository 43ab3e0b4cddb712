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
    pub coord: CellCoord,
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
        for &c in cell.coord.iter() {
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
        for (k, (a, b)) in cell.coord.iter().zip(other.iter()).enumerate() {
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
/// Returns `None` if the buffer is truncated or malformed.
pub fn decode(mut buf: Bytes) -> Option<Sgs> {
    if buf.remaining() < HEADER_BYTES {
        return None;
    }
    let dim = buf.get_u8() as usize;
    let level = buf.get_u8();
    let count = buf.get_u32_le() as usize;
    let side = buf.get_f64_le();
    if dim == 0 || side <= 0.0 || side.is_nan() || buf.remaining() < count * bytes_per_cell(dim) {
        return None;
    }
    let mut packed = Vec::with_capacity(count);
    for _ in 0..count {
        let coord: CellCoord = (0..dim).map(|_| buf.get_i32_le()).collect();
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
        .map(|(i, c)| (c.coord.as_slice(), i as u32))
        .collect();
    let cells = packed
        .iter()
        .map(|p| {
            let mut connections = Vec::new();
            for k in 0..dim {
                for (bit, dir) in [(2 * k, -1i32), (2 * k + 1, 1)] {
                    if p.connections & (1 << bit) != 0 {
                        let mut nb = p.coord.to_vec();
                        nb[k] += dir;
                        if let Some(&j) = index_of.get(nb.as_slice()) {
                            connections.push(j);
                        }
                    }
                }
            }
            connections.sort_unstable();
            SkeletalCell {
                coord: p.coord.clone(),
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
                        .iter()
                        .zip(s.cells[j as usize].coord.iter())
                        .map(|(x, y)| (x - y).abs())
                        .sum();
                    d == 1
                })
                .collect();
            assert_eq!(b.connections, face_conns);
        }
    }

    #[test]
    fn five_dimensional_summary_round_trips_byte_for_byte() {
        // One dimension past the inline cell-key width, with negative
        // coordinates: boxed keys must pack exactly like inline ones.
        let g = GridGeometry::basic(5, 1.0);
        let side = g.side();
        let cores: Vec<Box<[f64]>> = (0..12)
            .map(|i| {
                let mut p = vec![-0.5 * side; 5];
                p[i % 5] += (i / 5) as f64 * side;
                p.into()
            })
            .collect();
        let s = Sgs::from_members(&MemberSet::new(cores, vec![]), &g);
        assert!(s.cells.len() > 1);
        assert!(s.cells.iter().all(|c| c.coord.dim() == 5));
        let bytes = encode(&s);
        assert_eq!(bytes.len(), archived_bytes(&s));
        let first: Vec<u8> = s.cells[0]
            .coord
            .iter()
            .flat_map(|c| c.to_le_bytes())
            .collect();
        assert_eq!(&bytes[HEADER_BYTES..HEADER_BYTES + 20], &first[..]);
        let decoded = decode(bytes.clone()).unwrap();
        for (a, b) in s.cells.iter().zip(&decoded.cells) {
            assert_eq!(a.coord, b.coord);
        }
        assert_eq!(encode(&decoded), bytes);
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

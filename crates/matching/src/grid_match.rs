//! Grid-cell-level cluster match (§7.2, refine phase).
//!
//! Two SGSs are compared sub-region by sub-region: under a given
//! *alignment* (an integer location-shift vector; `[0,…,0]` for
//! position-sensitive queries), each skeletal cell of `Ca` is paired with
//! the cell of `Cb` covering the corresponding sub-region and their
//! status, density and connectivity are compared. A cell with no
//! counterpart is "compared against an empty grid" — maximum difference.

use sgs_core::kernel::rel_diff;
use sgs_summarize::{CellStatus, Sgs, SkeletalCell};

use crate::coord_table::{hash, CoordTable};

/// Per-cell-pair difference in `[0, 1]`: mean of status mismatch,
/// relative population difference and relative connectivity difference.
fn cell_diff(a: &SkeletalCell, b: &SkeletalCell) -> f64 {
    let status = if a.status == b.status { 0.0 } else { 1.0 };
    let density = rel_diff(a.population as f64, b.population as f64);
    let conn = match (a.status, b.status) {
        // Edge cells carry no indicators (Def. 4.4) — compare only when
        // both sides can have them.
        (CellStatus::Core, CellStatus::Core) => {
            rel_diff(a.connectivity() as f64, b.connectivity() as f64)
        }
        _ => status,
    };
    (status + density + conn) / 3.0
}

/// The refine kernel: both summaries' cell coordinates copied flat, with
/// the (linear) hash of each of `a`'s precomputed and `b`'s behind a hash
/// index. Evaluating an alignment then costs one hash addition and one
/// probe per cell of `a`, and allocates nothing. Build one per summary
/// pair and evaluate as many shifts as the search needs.
///
/// Relies on the [`Sgs`] invariant that cell coordinates are unique
/// (cells are strictly sorted): entry `j` of the index is then cell `j`
/// of `b`, and distinct cells of `a` land on distinct cells of `b` under
/// any shift, so counting hits counts the matched cells of `b`.
pub(crate) struct GridMatcher<'s> {
    a: &'s Sgs,
    b: &'s Sgs,
    dim: usize,
    a_coords: Vec<i32>,
    a_hashes: Vec<u64>,
    b_index: CoordTable,
}

impl<'s> GridMatcher<'s> {
    pub(crate) fn new(a: &'s Sgs, b: &'s Sgs) -> Self {
        let dim = a.cells.first().map_or(a.dim, |c| c.coord.dim());
        let a_coords = a
            .cells
            .iter()
            .flat_map(|c| c.coord.iter().copied())
            .collect();
        let a_hashes = a.cells.iter().map(|c| hash(&c.coord)).collect();
        let b_dim = b.cells.first().map_or(b.dim, |c| c.coord.dim());
        let mut b_index = CoordTable::with_capacity(b_dim, b.cells.len());
        for (j, c) in b.cells.iter().enumerate() {
            let k = b_index.insert(&c.coord);
            debug_assert_eq!(k, Some(j as u32), "cell coordinates must be unique");
        }
        GridMatcher {
            a,
            b,
            dim,
            a_coords,
            a_hashes,
            b_index,
        }
    }

    /// Grid-level distance under `shift`; see [`grid_level_distance`].
    /// Terms are summed in `a`'s cell order, then the unmatched cells of
    /// `b` are added as one integer — the order the volume bound's proof
    /// ([`volume_lower_bound`]) and the golden tests rely on.
    pub(crate) fn distance(&self, shift: &[i32]) -> f64 {
        let (a, b) = (self.a, self.b);
        if a.cells.is_empty() && b.cells.is_empty() {
            return 0.0;
        }
        if a.cells.is_empty() || b.cells.is_empty() {
            return 1.0;
        }
        let shift_hash = hash(shift);
        let mut total = 0.0;
        let mut matched = 0usize;
        let coords = self.a_coords.chunks_exact(self.dim);
        for ((cell, coord), &h) in a.cells.iter().zip(coords).zip(&self.a_hashes) {
            match self.b_index.find_shifted(coord, h, shift, shift_hash) {
                Some(j) => {
                    matched += 1;
                    total += cell_diff(cell, &b.cells[j as usize]);
                }
                None => total += 1.0,
            }
        }
        let unmatched_b = b.cells.len() - matched;
        total += unmatched_b as f64;
        total / (a.cells.len() + unmatched_b) as f64
    }
}

/// Grid-level distance between two summaries under alignment `shift`
/// (a cell at coordinate `x` in `a` corresponds to `x + shift` in `b`,
/// per the alignment footnote of §7.2). Symmetric: unmatched cells on
/// either side contribute the maximum difference. Result in `[0, 1]`.
pub fn grid_level_distance(a: &Sgs, b: &Sgs, shift: &[i32]) -> f64 {
    GridMatcher::new(a, b).distance(shift)
}

/// A lower bound on [`grid_level_distance`]`(a, b, s)` over **every**
/// shift `s`, from the two cell counts alone:
/// `|na − nb| / max(na, nb)`, computed as [`rel_diff`] computes it.
///
/// The bound holds for the computed `f64` values, not just in the reals:
///
/// * Empty summaries: the distance is exactly 0 (both empty) or 1 (one
///   empty), and so is the bound.
/// * Otherwise let `m ≤ min(na, nb)` be the number of `a` cells whose
///   shifted coordinate hits a `b` cell. The kernel adds, in `a`'s cell
///   order, exactly 1.0 for each of the `na − m` unmatched `a` cells and
///   a pair difference ≥ 0 for each matched pair, then adds the integer
///   `nb − m` once, and divides by `na + nb − m`.
/// * IEEE addition is monotone in each operand. Replacing every pair
///   difference by 0 raises no summand, so the computed total is at
///   least the computed total of that reduced sequence — whose partial
///   sums are small integers, hence exact: `na + nb − 2m`.
/// * Division by the same positive divisor is monotone too, so the
///   computed distance is ≥ `fl((na + nb − 2m) / (na + nb − m))`.
/// * With `S = na + nb`, in the reals `(S − 2m) / (S − m) =
///   1 − m / (S − m)` falls as `m` grows; at its largest,
///   `m = min(na, nb)`, it equals `|na − nb| / max(na, nb)`. Rounding is
///   monotone, so the computed quotient is ≥
///   `fl(|na − nb| / max(na, nb))` — the bound (its clamp to 1 never
///   binds).
///
/// So a pair whose bound exceeds a match threshold cannot match under
/// any shift, and in particular not under the best one
/// [`crate::best_alignment`] finds.
pub fn volume_lower_bound(na: usize, nb: usize) -> f64 {
    rel_diff(na as f64, nb as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_core::GridGeometry;
    use sgs_summarize::MemberSet;

    fn strip(x0: f64, y0: f64, n: usize) -> Sgs {
        let cores: Vec<Box<[f64]>> = (0..n)
            .map(|i| vec![x0 + i as f64 * 0.3, y0 + 0.05].into())
            .collect();
        Sgs::from_members(&MemberSet::new(cores, vec![]), &GridGeometry::basic(2, 1.0))
    }

    #[test]
    fn identical_summaries_zero_distance() {
        let a = strip(0.0, 0.0, 12);
        assert_eq!(grid_level_distance(&a, &a, &[0, 0]), 0.0);
    }

    #[test]
    fn integer_translation_is_recovered_by_shift() {
        let side = GridGeometry::basic(2, 1.0).side();
        let a = strip(0.0, 0.0, 12);
        // Translate by exactly 3 cells in x and 2 in y.
        let b = strip(3.0 * side, 2.0 * side, 12);
        assert!(grid_level_distance(&a, &b, &[0, 0]) > 0.5);
        let d = grid_level_distance(&a, &b, &[3, 2]);
        assert!(d < 1e-9, "aligned distance {d}");
    }

    #[test]
    fn disjoint_summaries_max_distance() {
        let a = strip(0.0, 0.0, 6);
        let b = strip(100.0, 100.0, 6);
        assert_eq!(grid_level_distance(&a, &b, &[0, 0]), 1.0);
    }

    #[test]
    fn partial_overlap_in_between() {
        let a = strip(0.0, 0.0, 12);
        let b = strip(0.0, 0.0, 6); // prefix of a
        let d = grid_level_distance(&a, &b, &[0, 0]);
        assert!(d > 0.0 && d < 1.0, "got {d}");
    }

    #[test]
    fn symmetric_under_swap_and_negated_shift() {
        let a = strip(0.0, 0.0, 10);
        let b = strip(0.9, 0.0, 7);
        let d1 = grid_level_distance(&a, &b, &[1, 0]);
        let d2 = grid_level_distance(&b, &a, &[-1, 0]);
        assert!((d1 - d2).abs() < 1e-12);
    }

    #[test]
    fn empty_cases() {
        let e = Sgs {
            dim: 2,
            side: 1.0,
            level: 0,
            cells: vec![],
        };
        let a = strip(0.0, 0.0, 4);
        assert_eq!(grid_level_distance(&e, &e, &[0, 0]), 0.0);
        assert_eq!(grid_level_distance(&a, &e, &[0, 0]), 1.0);
        assert_eq!(grid_level_distance(&e, &a, &[0, 0]), 1.0);
    }
}

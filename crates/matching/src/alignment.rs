//! A*-style anytime alignment search (§7.2, non-position-sensitive refine).
//!
//! One or more alignments may minimize the grid-level distance between two
//! clusters; exhaustive search is affordable offline but not online. The
//! paper's strategy, reproduced here: **seed** with an alignment that
//! overlaps the two clusters well (their cell-centroid offset), then
//! repeatedly expand the most promising alignment found so far (best-first
//! over the ±1-per-dimension neighborhood) until a fixed evaluation budget
//! is exhausted, returning the best distance seen — an *anytime* answer.

use std::cmp::Ordering;

use sgs_summarize::Sgs;

use crate::coord_table::CoordTable;
use crate::grid_match::GridMatcher;

/// Outcome of the anytime alignment search.
#[derive(Clone, Debug, PartialEq)]
pub struct AlignmentResult {
    /// Best alignment found (shift applied to `a`'s coordinates to land in
    /// `b`'s frame).
    pub shift: Vec<i32>,
    /// Grid-level distance under that alignment.
    pub distance: f64,
    /// Number of alignments evaluated.
    pub evaluated: usize,
}

/// Mean cell coordinate of a summary (the "center of mass" in cell space).
fn cell_centroid(sgs: &Sgs) -> Vec<f64> {
    let dim = sgs.dim;
    let mut acc = vec![0.0; dim];
    if sgs.cells.is_empty() {
        return acc;
    }
    for c in &sgs.cells {
        for (a, coord) in acc.iter_mut().zip(c.coord.iter()) {
            *a += *coord as f64;
        }
    }
    for a in &mut acc {
        *a /= sgs.cells.len() as f64;
    }
    acc
}

/// State of one search. Every evaluated alignment lives once in a flat
/// table — the seen-set, indexed in evaluation order — and the open
/// list and the best-so-far refer to it by index, so no shift is ever
/// cloned.
struct Search<'s> {
    grid: GridMatcher<'s>,
    shifts: CoordTable,
    distances: Vec<f64>,
    /// Evaluated alignments not yet expanded.
    open: Vec<u32>,
    best: u32,
    best_distance: f64,
}

impl Search<'_> {
    fn evaluated(&self) -> usize {
        self.shifts.len()
    }

    /// Evaluate `shift` unless it was evaluated before.
    fn evaluate(&mut self, shift: &[i32]) {
        let Some(k) = self.shifts.insert(shift) else {
            return;
        };
        let d = self.grid.distance(shift);
        if d < self.best_distance {
            self.best = k;
            self.best_distance = d;
        }
        self.distances.push(d);
        self.open.push(k);
    }

    /// Remove and return the most promising open alignment: least
    /// distance, ties to the lexicographically least shift. That is a
    /// total order (distances are never NaN, shifts are distinct), so
    /// the expansion sequence does not depend on how the open list is
    /// stored. A scan is O(open) per pop, which the default budget of 64
    /// keeps small.
    fn pop(&mut self) -> Option<u32> {
        let mut at = 0;
        for i in 1..self.open.len() {
            let (k, cur) = (self.open[i], self.open[at]);
            let by_distance = self.distances[k as usize]
                .partial_cmp(&self.distances[cur as usize])
                .unwrap_or(Ordering::Equal);
            if by_distance.then_with(|| self.shifts.get(k).cmp(self.shifts.get(cur)))
                == Ordering::Less
            {
                at = i;
            }
        }
        (!self.open.is_empty()).then(|| self.open.swap_remove(at))
    }
}

/// Search for the alignment minimizing the grid-level distance, evaluating
/// at most `budget` alignments. The seed alignment is the rounded
/// cell-centroid offset, which overlaps the clusters' mass centers.
pub fn best_alignment(a: &Sgs, b: &Sgs, budget: usize) -> AlignmentResult {
    let dim = a.dim.max(b.dim).max(1);
    let grid = GridMatcher::new(a, b);
    if a.cells.is_empty() || b.cells.is_empty() {
        let shift = vec![0; dim];
        return AlignmentResult {
            distance: grid.distance(&shift),
            shift,
            evaluated: 1,
        };
    }
    let ca = cell_centroid(a);
    let cb = cell_centroid(b);
    let seed: Vec<i32> = ca
        .iter()
        .zip(cb.iter())
        .map(|(x, y)| (y - x).round() as i32)
        .collect();
    debug_assert_eq!(seed.len(), dim, "summaries of different dimensionality");

    let mut search = Search {
        grid,
        shifts: CoordTable::with_capacity(dim, budget.min(256)),
        distances: Vec::new(),
        open: Vec::new(),
        best: 0,
        best_distance: f64::INFINITY,
    };
    search.evaluate(&seed);
    let mut next = Vec::with_capacity(dim);
    while search.evaluated() < budget {
        let Some(cur) = search.pop() else {
            break;
        };
        // Expand ±1 on each dimension from the most promising alignment.
        next.clear();
        next.extend_from_slice(search.shifts.get(cur));
        for d in 0..dim {
            for delta in [-1, 1] {
                if search.evaluated() >= budget {
                    break;
                }
                next[d] += delta;
                search.evaluate(&next);
                next[d] -= delta;
            }
        }
        if search.best_distance == 0.0 {
            break; // perfect alignment; nothing can improve
        }
    }
    AlignmentResult {
        shift: search.shifts.get(search.best).to_vec(),
        distance: search.best_distance,
        evaluated: search.evaluated(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_core::GridGeometry;
    use sgs_summarize::MemberSet;

    fn shape(x0: f64, y0: f64) -> Sgs {
        // An L-shaped cluster (asymmetric, so alignment is unambiguous).
        // The 0.05 inset keeps every point away from cell boundaries so
        // integer-side translations reproduce the exact cell structure.
        let mut cores: Vec<Box<[f64]>> = (0..8)
            .map(|i| vec![x0 + 0.05 + i as f64 * 0.3, y0 + 0.05].into())
            .collect();
        cores.extend((1..5).map(|i| Box::from(vec![x0 + 0.05, y0 + 0.05 + i as f64 * 0.3])));
        Sgs::from_members(&MemberSet::new(cores, vec![]), &GridGeometry::basic(2, 1.0))
    }

    #[test]
    fn finds_exact_translation() {
        let side = GridGeometry::basic(2, 1.0).side();
        let a = shape(0.0, 0.0);
        let b = shape(7.0 * side, -3.0 * side);
        let result = best_alignment(&a, &b, 128);
        assert!(result.distance < 1e-9, "distance {}", result.distance);
        assert_eq!(result.shift, vec![7, -3]);
    }

    #[test]
    fn identical_clusters_align_at_zero() {
        let a = shape(0.0, 0.0);
        let result = best_alignment(&a, &a, 64);
        assert_eq!(result.shift, vec![0, 0]);
        assert_eq!(result.distance, 0.0);
    }

    #[test]
    fn budget_is_respected() {
        let a = shape(0.0, 0.0);
        let b = shape(50.0, 50.0);
        let result = best_alignment(&a, &b, 10);
        assert!(result.evaluated <= 10);
    }

    #[test]
    fn anytime_improves_with_budget() {
        let side = GridGeometry::basic(2, 1.0).side();
        let a = shape(0.0, 0.0);
        // Offset by a shift the seed misses slightly (different shape mass).
        let mut b = shape(4.0 * side, 2.0 * side);
        b.cells.truncate(b.cells.len() - 2); // perturb so seed is off
        let small = best_alignment(&a, &b, 4).distance;
        let large = best_alignment(&a, &b, 256).distance;
        assert!(large <= small);
    }

    #[test]
    fn empty_inputs() {
        let e = Sgs {
            dim: 2,
            side: 1.0,
            level: 0,
            cells: vec![],
        };
        let a = shape(0.0, 0.0);
        let r = best_alignment(&e, &a, 16);
        assert_eq!(r.distance, 1.0);
        let r = best_alignment(&e, &e, 16);
        assert_eq!(r.distance, 0.0);
    }
}

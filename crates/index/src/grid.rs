//! The uniform grid index used by the pattern extractor (§5.4).
//!
//! Every arriving object is loaded into its cell, then a single **range
//! query search** (RQS) finds its neighbors among the cells a θr-ball can
//! reach (the `(2·reach+1)^d` block of [`GridGeometry::reachable_cells`]),
//! pruning by true distance. Because the basic cell diagonal equals θr,
//! all points co-located in a cell are mutual neighbors (Lemma 4.1) — the
//! index exposes per-cell buckets so algorithms can exploit that.
//!
//! The index lists the occupied cells of every grid *region* (one block
//! wide, [`GridGeometry::region_width`]), so an RQS scans the lists of
//! the at most `2^d` regions its block overlaps instead of probing every
//! cell of the block ([`ReachBlock`], `DESIGN.md` §13). Most cells of a
//! 4-d block are empty.
//!
//! Cell storage is structure-of-arrays ([`CellSlab`]): each cell keeps one
//! contiguous coordinate slab plus parallel id/expiry columns, so the
//! distance pruning of an RQS feeds whole cells into the batched
//! [`sgs_core::kernel`] with zero pointer chasing (`DESIGN.md` §13).

use sgs_core::{kernel, CellCoord, GridGeometry, HeapSize, Point, PointId, WindowId};

use crate::fx::FxHashMap;

/// The points of one grid cell, stored column-wise: `coords` holds the
/// cell's points back to back (`dim` consecutive `f64`s per point, the
/// same slab layout the [`sgs_core::kernel`] batch primitives consume),
/// with `ids[j]` / `expires[j]` the id and expiry window of the point at
/// slab position `j`. Expiry rides inline because C-SGS discovery reads
/// every neighbor's expiry and a point's expiry is fixed at arrival
/// (`DESIGN.md` §1) — the copy can never go stale while indexed.
#[derive(Clone, Debug, Default)]
pub struct CellSlab {
    ids: Vec<PointId>,
    expires: Vec<WindowId>,
    coords: Vec<f64>,
}

/// The bucket returned for cells with no live points.
static EMPTY_SLAB: CellSlab = CellSlab {
    ids: Vec::new(),
    expires: Vec::new(),
    coords: Vec::new(),
};

impl CellSlab {
    /// Number of points in the cell.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the cell holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The ids column, slab order.
    #[inline]
    pub fn ids(&self) -> &[PointId] {
        &self.ids
    }

    /// The expiry column, slab order.
    #[inline]
    pub fn expires(&self) -> &[WindowId] {
        &self.expires
    }

    /// The contiguous point-major coordinate slab.
    #[inline]
    pub fn coords(&self) -> &[f64] {
        &self.coords
    }

    /// Id of the point at slab position `j`.
    #[inline]
    pub fn id(&self, j: usize) -> PointId {
        self.ids[j]
    }

    /// Expiry window of the point at slab position `j`.
    #[inline]
    pub fn expires_at(&self, j: usize) -> WindowId {
        self.expires[j]
    }

    /// Coordinates of the point at slab position `j`.
    #[inline]
    pub fn point(&self, j: usize) -> &[f64] {
        let d = self.dim();
        &self.coords[j * d..j * d + d]
    }

    /// Coordinate count per point (0 for an empty slab).
    #[inline]
    fn dim(&self) -> usize {
        if self.ids.is_empty() {
            0
        } else {
            self.coords.len() / self.ids.len()
        }
    }

    fn push(&mut self, id: PointId, coords: &[f64], expires_at: WindowId) {
        self.ids.push(id);
        self.expires.push(expires_at);
        self.coords.extend_from_slice(coords);
    }

    /// Remove position `pos` by swapping the last point into the hole —
    /// all three columns move in lockstep so slab positions stay aligned.
    fn swap_remove(&mut self, pos: usize) {
        let d = self.dim();
        let last = self.ids.len() - 1;
        self.ids.swap_remove(pos);
        self.expires.swap_remove(pos);
        if pos != last {
            let (head, tail) = self.coords.split_at_mut(last * d);
            head[pos * d..pos * d + d].copy_from_slice(&tail[..d]);
        }
        self.coords.truncate(last * d);
    }

    fn heap_bytes(&self) -> usize {
        self.ids.capacity() * core::mem::size_of::<PointId>()
            + self.expires.capacity() * core::mem::size_of::<WindowId>()
            + self.coords.capacity() * core::mem::size_of::<f64>()
    }
}

/// Uniform grid over the data space, bucketing live points by cell.
///
/// Every grid *region* ([`GridGeometry::region_width`] cells wide per
/// dimension) lists its occupied cells, and each listed cell points to
/// its slab in an arena, so a range query scans only occupied cells
/// ([`ReachBlock`]). The region lists are also the cell lookup: a cell
/// is found in its region's sorted list. A list changes only when a
/// cell's slab is created or emptied.
#[derive(Clone, Debug)]
pub struct GridIndex {
    geometry: GridGeometry,
    /// Region coordinate → one `dim + 1` record per occupied cell of the
    /// region: the cell's coordinates, then its slot in `slabs` (as
    /// `i32`). Records are sorted by coordinates. Regions without
    /// occupied cells have no entry.
    regions: FxHashMap<CellCoord, Vec<i32>>,
    /// The slab arena. A freed slot holds an empty, unallocated slab.
    slabs: Vec<CellSlab>,
    /// Freed slots, reused before the arena grows.
    free: Vec<u32>,
    len: usize,
}

impl GridIndex {
    /// Empty index with the given geometry.
    pub fn new(geometry: GridGeometry) -> Self {
        GridIndex {
            geometry,
            regions: FxHashMap::default(),
            slabs: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// The grid geometry.
    #[inline]
    pub fn geometry(&self) -> &GridGeometry {
        &self.geometry
    }

    /// Number of indexed points.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of non-empty cells.
    #[inline]
    pub fn cell_count(&self) -> usize {
        self.slabs.len() - self.free.len()
    }

    /// Insert a non-expiring point (entry expiry pinned to the maximum
    /// window); returns the cell it landed in.
    pub fn insert(&mut self, id: PointId, point: &Point) -> CellCoord {
        self.insert_expiring(id, point, WindowId::MAX)
    }

    /// Insert a point together with its expiry window, stored inline in
    /// the cell slab so range-query consumers read it without a point-map
    /// lookup; returns the cell it landed in.
    pub fn insert_expiring(
        &mut self,
        id: PointId,
        point: &Point,
        expires_at: WindowId,
    ) -> CellCoord {
        let cell = self.geometry.cell_of(point);
        self.insert_at(&cell, id, &point.coords, expires_at);
        cell
    }

    /// Insert a point whose cell is already known (the re-shard move
    /// path): same effect as [`insert_expiring`](Self::insert_expiring)
    /// without recomputing the cell from the geometry.
    pub fn insert_at(
        &mut self,
        cell: &CellCoord,
        id: PointId,
        coords: &[f64],
        expires_at: WindowId,
    ) {
        let key = cell.as_slice();
        let list = self.regions.entry(self.region_of(key)).or_default();
        let at = record_index(list, key);
        let slot = match find_record(list, key, at) {
            Some(slot) => slot,
            None => {
                // A new cell: give it a slot and list it.
                let slot = self.free.pop().unwrap_or_else(|| {
                    self.slabs.push(CellSlab::default());
                    (self.slabs.len() - 1) as u32
                });
                let rec = key.len() + 1;
                list.splice(at * rec..at * rec, key.iter().copied().chain([slot as i32]));
                slot
            }
        };
        self.slabs[slot as usize].push(id, coords, expires_at);
        self.len += 1;
    }

    /// Remove a point from the cell it was inserted into. Returns `true`
    /// if it was present.
    pub fn remove(&mut self, id: PointId, cell: &CellCoord) -> bool {
        let key = cell.as_slice();
        let region = self.region_of(key);
        let Some(list) = self.regions.get_mut(&region) else {
            return false;
        };
        let at = record_index(list, key);
        let Some(slot) = find_record(list, key, at) else {
            return false;
        };
        let slab = &mut self.slabs[slot as usize];
        let Some(pos) = slab.ids.iter().position(|&e| e == id) else {
            return false;
        };
        slab.swap_remove(pos);
        if slab.is_empty() {
            // The cell emptied: free its slot and unlist it, dropping the
            // region's list once that is empty.
            *slab = CellSlab::default();
            self.free.push(slot);
            let rec = key.len() + 1;
            list.drain(at * rec..at * rec + rec);
            if list.is_empty() {
                self.regions.remove(&region);
            }
        }
        self.len -= 1;
        true
    }

    /// The region coordinate of a cell (floor division per dimension).
    fn region_of(&self, cell: &[i32]) -> CellCoord {
        let w = self.geometry.region_width();
        cell.iter().map(|c| c.div_euclid(w)).collect()
    }

    /// The live points currently bucketed in `cell` (an empty slab when
    /// the cell has none).
    pub fn cell_points(&self, cell: &CellCoord) -> &CellSlab {
        let key = cell.as_slice();
        self.regions
            .get(&self.region_of(key))
            .and_then(|list| find_record(list, key, record_index(list, key)))
            .map_or(&EMPTY_SLAB, |slot| &self.slabs[slot as usize])
    }

    /// Iterate over all non-empty cells.
    pub fn cells(&self) -> impl Iterator<Item = (&[i32], &CellSlab)> {
        let d = self.geometry.dim();
        self.regions.values().flat_map(move |list| {
            list.chunks_exact(d + 1)
                .map(move |r| (&r[..d], &self.slabs[r[d] as usize]))
        })
    }

    /// The range-query primitive: call `f(cell, slab)` for every occupied
    /// cell of `block`'s current region that lies inside the block and
    /// is not box-pruned.
    ///
    /// Only the region's list of occupied cells is scanned. Each listed
    /// cell must lie inside the reachability block, and its bounding box
    /// must lie within the block's radius of the query point. That box
    /// test carries a 16 ε relative margin, so floating-point rounding in
    /// the box arithmetic can only ever err toward *visiting* a cell:
    /// pruning never changes the match set. Cells come in coordinate
    /// order, not the odometer order of
    /// [`GridGeometry::reachable_cells`]; no consumer's result depends on
    /// the visiting order.
    pub fn for_each_cell_in_region<'s>(
        &'s self,
        block: &ReachBlock,
        mut f: impl FnMut(&'s [i32], &'s CellSlab),
    ) {
        let Some(list) = self.regions.get(block.region()) else {
            return;
        };
        let d = block.query.len();
        debug_assert_eq!(d, self.geometry.dim());
        debug_assert_eq!(block.width, self.geometry.region_width());
        let side = block.side;
        let (lo, hi) = (&block.bounds[..d], &block.bounds[d..2 * d]);
        // Records are sorted, so the cells inside the block on dimension
        // 0 form one run.
        let rec = d + 1;
        let first = partition_point(list.len() / rec, |i| list[i * rec] < lo[0]);
        for record in list[first * rec..].chunks_exact(rec) {
            let key = &record[..d];
            if key[0] > hi[0] {
                break;
            }
            let inside = key
                .iter()
                .zip(lo.iter().zip(hi))
                .all(|(k, (l, h))| l <= k && k <= h);
            if !inside {
                continue;
            }
            // Squared distance from the query to the cell's box.
            let mut min_sq = 0.0;
            for (&k, &c) in key.iter().zip(&block.query) {
                let lo_edge = k as f64 * side;
                let hi_edge = lo_edge + side;
                let delta = if c < lo_edge {
                    lo_edge - c
                } else if c > hi_edge {
                    c - hi_edge
                } else {
                    0.0
                };
                min_sq += delta * delta;
            }
            if min_sq <= block.prune {
                f(key, &self.slabs[record[d] as usize]);
            }
        }
    }

    /// Visit every occupied, unpruned cell of the reachability block
    /// around `coords`: [`for_each_cell_in_region`] over each region the
    /// block overlaps.
    ///
    /// [`for_each_cell_in_region`]: Self::for_each_cell_in_region
    fn for_each_reachable_cell<'s>(
        &'s self,
        coords: &[f64],
        theta_sq: f64,
        mut f: impl FnMut(&'s [i32], &'s CellSlab),
    ) {
        let mut block = ReachBlock::new(&self.geometry);
        block.aim(coords, theta_sq);
        loop {
            self.for_each_cell_in_region(&block, &mut f);
            if !block.next_region() {
                return;
            }
        }
    }

    /// Range query search: every indexed point within `theta_r` of `coords`,
    /// excluding `exclude` (the querying point itself, per Def. 3.1 a point
    /// is not its own neighbor). Results are appended to `out` in cell
    /// visiting order, which [`for_each_cell_in_region`] fixes.
    ///
    /// [`for_each_cell_in_region`]: Self::for_each_cell_in_region
    ///
    /// Each visited cell's slab is fed whole into the batched distance
    /// kernel; the self-exclusion check runs once per *match*, not once
    /// per candidate.
    pub fn range_query(
        &self,
        coords: &[f64],
        theta_r: f64,
        exclude: PointId,
        out: &mut Vec<PointId>,
    ) {
        let theta_sq = theta_r * theta_r;
        self.for_each_reachable_cell(coords, theta_sq, |_, slab| {
            kernel::for_each_within(coords, &slab.coords, theta_sq, |j| {
                let id = slab.ids[j];
                if id != exclude {
                    out.push(id);
                }
            });
        });
    }

    /// Like [`range_query`](Self::range_query) but yields
    /// `(id, cell, expires_at)` triples so callers can update per-cell
    /// and per-lifespan state without a second lookup.
    pub fn range_query_with_cells(
        &self,
        coords: &[f64],
        theta_r: f64,
        exclude: PointId,
        out: &mut Vec<(PointId, CellCoord, WindowId)>,
    ) {
        let theta_sq = theta_r * theta_r;
        self.for_each_reachable_cell(coords, theta_sq, |cell, slab| {
            kernel::for_each_within(coords, &slab.coords, theta_sq, |j| {
                let id = slab.ids[j];
                if id != exclude {
                    out.push((id, CellCoord::new(cell), slab.expires[j]));
                }
            });
        });
    }
}

/// The first index in `0..n` where `below` turns false (`below` holds
/// on a prefix of the range).
fn partition_point(n: usize, mut below: impl FnMut(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (0, n);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if below(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Where `key` sits among a region list's sorted records: the index of
/// its record, or of the record it would be inserted before.
fn record_index(list: &[i32], key: &[i32]) -> usize {
    let rec = key.len() + 1;
    partition_point(list.len() / rec, |i| {
        &list[i * rec..i * rec + rec - 1] < key
    })
}

/// The slot of `key` if record `at` (from [`record_index`]) is its.
fn find_record(list: &[i32], key: &[i32], at: usize) -> Option<u32> {
    let rec = key.len() + 1;
    let record = list.get(at * rec..at * rec + rec)?;
    (&record[..rec - 1] == key).then_some(record[rec - 1] as u32)
}

impl HeapSize for GridIndex {
    fn heap_size(&self) -> usize {
        use core::mem::size_of;
        let mut bytes = self.regions.capacity() * (size_of::<(CellCoord, Vec<i32>)>() + 1)
            + self.slabs.capacity() * size_of::<CellSlab>()
            + self.free.capacity() * size_of::<u32>();
        for (region, list) in &self.regions {
            bytes += region.heap_size() + list.capacity() * size_of::<i32>();
        }
        for slab in &self.slabs {
            bytes += slab.heap_bytes();
        }
        bytes
    }
}

/// The reachability block of one range query and the grid regions it
/// overlaps: the walk state every grid consumer shares.
///
/// [`aim`](Self::aim) centers the block on a query point. The block is
/// the `(2·reach + 1)^d` cells around the point's cell (every cell a
/// θr-ball around the point can reach, as in
/// [`GridGeometry::reachable_cells`]). A region is exactly as wide as the
/// block ([`GridGeometry::region_width`]), so the block overlaps at most
/// two regions per dimension, `2^d` in all.
/// [`region`](Self::region) and [`next_region`](Self::next_region) step
/// through them, and [`GridIndex::for_each_cell_in_region`] scans each
/// region's occupied cells. A sharded extractor hands each region to the
/// index of the shard that owns it. The buffers are reused across
/// queries.
#[derive(Clone, Debug)]
pub struct ReachBlock {
    side: f64,
    reach: i32,
    width: i32,
    /// Squared query radius plus the box prune's 16 ε margin.
    prune: f64,
    /// The query point.
    query: Vec<f64>,
    /// Five `dim`-long runs: the block's cell bounds `lo`, `hi`, its
    /// region bounds `rlo`, `rhi`, and the current region.
    bounds: Vec<i32>,
}

impl ReachBlock {
    /// A block for range queries over grids of `geometry`.
    pub fn new(geometry: &GridGeometry) -> Self {
        let d = geometry.dim();
        ReachBlock {
            side: geometry.side(),
            reach: geometry.reach(),
            width: geometry.region_width(),
            prune: 0.0,
            query: vec![0.0; d],
            bounds: vec![0; 5 * d],
        }
    }

    /// Center the block on `coords` for radius² `theta_sq`, and make the
    /// first overlapped region current.
    pub fn aim(&mut self, coords: &[f64], theta_sq: f64) {
        let d = self.query.len();
        debug_assert_eq!(coords.len(), d);
        self.prune = theta_sq + theta_sq * 16.0 * f64::EPSILON;
        self.query.copy_from_slice(coords);
        for (i, &x) in coords.iter().enumerate() {
            let c = (x / self.side).floor() as i32;
            let (lo, hi) = (c - self.reach, c + self.reach);
            let rlo = lo.div_euclid(self.width);
            self.bounds[i] = lo;
            self.bounds[d + i] = hi;
            self.bounds[2 * d + i] = rlo;
            self.bounds[3 * d + i] = hi.div_euclid(self.width);
            self.bounds[4 * d + i] = rlo;
        }
    }

    /// The current region's coordinate.
    #[inline]
    pub fn region(&self) -> &[i32] {
        &self.bounds[4 * self.query.len()..]
    }

    /// Advance to the next overlapped region (dimension 0 fastest);
    /// `false` once every region has been current.
    pub fn next_region(&mut self) -> bool {
        let d = self.query.len();
        for i in 0..d {
            if self.bounds[4 * d + i] < self.bounds[3 * d + i] {
                self.bounds[4 * d + i] += 1;
                return true;
            }
            self.bounds[4 * d + i] = self.bounds[2 * d + i];
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_core::GridGeometry;

    fn index2d(theta_r: f64) -> GridIndex {
        GridIndex::new(GridGeometry::basic(2, theta_r))
    }

    fn pt(x: f64, y: f64) -> Point {
        Point::new(vec![x, y], 0)
    }

    #[test]
    fn insert_and_cell_lookup() {
        let mut g = index2d(1.0);
        let c = g.insert(PointId(0), &pt(0.1, 0.1));
        assert_eq!(g.len(), 1);
        assert_eq!(g.cell_points(&c).len(), 1);
        assert_eq!(g.cell_count(), 1);
    }

    #[test]
    fn range_query_finds_exact_neighbors() {
        let mut g = index2d(1.0);
        g.insert(PointId(0), &pt(0.0, 0.0));
        g.insert(PointId(1), &pt(0.5, 0.0)); // dist 0.5 → neighbor
        g.insert(PointId(2), &pt(1.0, 0.0)); // dist 1.0 → neighbor (inclusive)
        g.insert(PointId(3), &pt(1.01, 0.0)); // just outside
        g.insert(PointId(4), &pt(5.0, 5.0)); // far away
        let mut out = Vec::new();
        g.range_query(&[0.0, 0.0], 1.0, PointId(0), &mut out);
        out.sort();
        assert_eq!(out, vec![PointId(1), PointId(2)]);
    }

    #[test]
    fn range_query_excludes_self_only() {
        let mut g = index2d(1.0);
        g.insert(PointId(0), &pt(0.0, 0.0));
        g.insert(PointId(1), &pt(0.0, 0.0)); // coincident distinct point
        let mut out = Vec::new();
        g.range_query(&[0.0, 0.0], 1.0, PointId(0), &mut out);
        assert_eq!(out, vec![PointId(1)]);
    }

    #[test]
    fn remove_clears_cells() {
        let mut g = index2d(1.0);
        let c0 = g.insert(PointId(0), &pt(0.0, 0.0));
        let c1 = g.insert(PointId(1), &pt(10.0, 10.0));
        assert!(g.remove(PointId(0), &c0));
        assert!(!g.remove(PointId(0), &c0));
        assert_eq!(g.len(), 1);
        assert_eq!(g.cell_count(), 1);
        assert!(g.remove(PointId(1), &c1));
        assert!(g.is_empty());
    }

    #[test]
    fn swap_remove_keeps_slab_columns_aligned() {
        let mut g = index2d(10.0); // wide cells → everything co-located
        let c = g.insert(PointId(0), &pt(0.0, 0.0));
        g.insert_expiring(PointId(1), &pt(1.0, 1.0), WindowId(11));
        g.insert_expiring(PointId(2), &pt(2.0, 2.0), WindowId(22));
        assert!(g.remove(PointId(0), &c));
        let slab = g.cell_points(&c);
        assert_eq!(slab.len(), 2);
        for j in 0..slab.len() {
            let id = slab.id(j);
            assert_eq!(slab.point(j), &[id.0 as f64, id.0 as f64]);
            assert_eq!(slab.expires_at(j), WindowId(11 * id.0 as u64));
        }
    }

    #[test]
    fn range_query_matches_brute_force() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let theta = 0.3;
        let mut g = index2d(theta);
        let pts: Vec<Point> = (0..400)
            .map(|_| pt(rng.gen_range(0.0..4.0), rng.gen_range(0.0..4.0)))
            .collect();
        for (i, p) in pts.iter().enumerate() {
            g.insert(PointId(i as u32), p);
        }
        for (i, p) in pts.iter().enumerate() {
            let mut fast = Vec::new();
            g.range_query(&p.coords, theta, PointId(i as u32), &mut fast);
            fast.sort();
            let mut slow: Vec<PointId> = pts
                .iter()
                .enumerate()
                .filter(|(j, q)| *j != i && p.is_neighbor(q, theta))
                .map(|(j, _)| PointId(j as u32))
                .collect();
            slow.sort();
            assert_eq!(fast, slow, "point {i}");
        }
    }

    #[test]
    fn with_cells_variant_reports_owning_cell_and_expiry() {
        let mut g = index2d(1.0);
        g.insert(PointId(0), &pt(0.0, 0.0));
        let cell1 = g.insert_expiring(PointId(1), &pt(0.9, 0.0), WindowId(42));
        let mut out = Vec::new();
        g.range_query_with_cells(&[0.0, 0.0], 1.0, PointId(0), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, PointId(1));
        assert_eq!(out[0].1, cell1);
        assert_eq!(out[0].2, WindowId(42));
    }

    #[test]
    fn plain_insert_pins_expiry_to_max() {
        let mut g = index2d(1.0);
        let c = g.insert(PointId(0), &pt(0.1, 0.1));
        assert_eq!(g.cell_points(&c).expires_at(0), WindowId::MAX);
    }

    #[test]
    fn heap_size_grows_with_content() {
        let mut g = index2d(1.0);
        let before = g.heap_size();
        for i in 0..100 {
            g.insert(PointId(i), &pt(i as f64, 0.0));
        }
        assert!(g.heap_size() > before);
    }

    /// Check the region lists: every occupied cell is listed exactly
    /// once, in its own region and in sorted order; no list is empty;
    /// every listed slot holds points; and every other slot is free.
    fn assert_region_lists(g: &GridIndex) {
        let d = g.geometry.dim();
        let mut slots = Vec::new();
        for (region, list) in &g.regions {
            assert!(!list.is_empty(), "empty list retained for {region:?}");
            let records: Vec<&[i32]> = list.chunks_exact(d + 1).collect();
            for pair in records.windows(2) {
                assert!(pair[0][..d] < pair[1][..d], "unsorted list {region:?}");
            }
            for record in records {
                let (key, slot) = (&record[..d], record[d] as u32);
                assert_eq!(&g.region_of(key), region, "{key:?} listed elsewhere");
                assert!(!g.slabs[slot as usize].is_empty());
                slots.push(slot);
            }
        }
        assert_eq!(slots.len(), g.cell_count());
        slots.extend(&g.free);
        slots.sort_unstable();
        let all: Vec<u32> = (0..g.slabs.len() as u32).collect();
        assert_eq!(slots, all, "every slot listed once or free");
    }

    /// Number of cells listed in the region of `cell`.
    fn listed(g: &GridIndex, cell: &CellCoord) -> usize {
        g.regions[&g.region_of(cell)].len() / (g.geometry.dim() + 1)
    }

    /// Points straddling the origin under insert/remove churn: region
    /// boundaries on negative coordinates are where `div_euclid` (not
    /// truncation) must pick the region. Runs in 4-d (inline region
    /// keys) and 5-d (boxed ones).
    #[test]
    fn range_query_matches_brute_force_negative_under_churn() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x4d);
        for (dim, theta, extent) in [(4, 0.5, 1.5), (5, 0.6, 1.2)] {
            let mut g = GridIndex::new(GridGeometry::basic(dim, theta));
            let mut live: Vec<(PointId, Point, CellCoord)> = Vec::new();
            let mut next = 0u32;
            for round in 0..12 {
                for _ in 0..150 {
                    let coords: Vec<f64> =
                        (0..dim).map(|_| rng.gen_range(-extent..extent)).collect();
                    let p = Point::new(coords, 0);
                    let cell = g.insert(PointId(next), &p);
                    live.push((PointId(next), p, cell));
                    next += 1;
                }
                // Expire a random third, so cells and regions empty and
                // refill.
                for _ in 0..live.len() / 3 {
                    let (id, _, cell) = live.swap_remove(rng.gen_range(0..live.len()));
                    assert!(g.remove(id, &cell));
                }
                assert_eq!(g.len(), live.len());
                assert_region_lists(&g);
                for (id, p, _) in live.iter().step_by(3) {
                    let mut fast = Vec::new();
                    g.range_query(&p.coords, theta, *id, &mut fast);
                    fast.sort();
                    let mut slow: Vec<PointId> = live
                        .iter()
                        .filter(|(q_id, q, _)| q_id != id && p.is_neighbor(q, theta))
                        .map(|(q_id, _, _)| *q_id)
                        .collect();
                    slow.sort();
                    assert_eq!(fast, slow, "{dim}-d, round {round}, point {id:?}");
                }
            }
            assert!(live
                .iter()
                .any(|(_, p, _)| p.coords.iter().all(|&x| x < 0.0)));
        }
    }

    #[test]
    fn region_lists_track_occupancy() {
        let mut g = index2d(1.0);
        let side = g.geometry.side();
        // Two cells of one region, one cell of the region below-left of
        // the origin.
        let a = g.insert(PointId(0), &pt(0.1 * side, 0.1 * side));
        let b = g.insert(PointId(1), &pt(1.1 * side, 0.1 * side));
        let c = g.insert(PointId(2), &pt(-0.5 * side, -0.5 * side));
        g.insert(PointId(3), &pt(0.2 * side, 0.2 * side));
        assert_eq!(g.region_of(&a), g.region_of(&b));
        assert_eq!(g.region_of(&c).as_slice(), &[-1, -1]);
        assert_eq!(g.regions.len(), 2);
        assert_region_lists(&g);

        // Emptying the only cell of a region drops the region's list.
        assert!(g.remove(PointId(2), &c));
        assert_eq!(g.regions.len(), 1);
        assert_region_lists(&g);
        // A cell that still holds a point stays listed.
        assert!(g.remove(PointId(0), &a));
        assert_eq!(listed(&g, &a), 2);
        assert_region_lists(&g);
        // Emptied, then refilled: listed again (in a reused slot).
        assert!(g.remove(PointId(1), &b));
        assert_eq!(listed(&g, &a), 1);
        g.insert(PointId(4), &pt(1.5 * side, 0.5 * side));
        assert_eq!(listed(&g, &b), 2);
        assert_region_lists(&g);
        let mut out = Vec::new();
        g.range_query(&[1.5 * side, 0.5 * side], 1.0, PointId(4), &mut out);
        assert_eq!(out, vec![PointId(3)]);
        // Empty index: no lists at all.
        assert!(g.remove(PointId(3), &a));
        assert!(g.remove(PointId(4), &b));
        assert!(g.regions.is_empty() && g.is_empty());
    }

    /// Two indexes with the same nine one-point cells: one packs them
    /// into a single region, the other spreads them over nine. Cell map,
    /// slabs and keys are alike, so the difference is the region lists.
    #[test]
    fn heap_size_counts_region_lists() {
        let geometry = GridGeometry::basic(2, 1.0);
        let (side, w) = (geometry.side(), geometry.region_width() as f64);
        let mut packed = index2d(1.0);
        let mut spread = index2d(1.0);
        for i in 0..9u32 {
            let (x, y) = ((i % 3) as f64 + 0.5, (i / 3) as f64 + 0.5);
            packed.insert(PointId(i), &pt(x * side, y * side));
            spread.insert(PointId(i), &pt(x * w * side, y * w * side));
        }
        assert_eq!(packed.cell_count(), spread.cell_count());
        assert_eq!((packed.regions.len(), spread.regions.len()), (1, 9));
        assert!(spread.heap_size() > packed.heap_size());
    }
}

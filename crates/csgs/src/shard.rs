//! The shard layer of C-SGS: per-region extraction state.
//!
//! Sharded extraction (`DESIGN.md` §6) hashes every grid cell to one of
//! `S` shards by coarsened *region* coordinate
//! ([`sgs_index::ShardRouter`]). Each [`Shard`] owns the extraction
//! state for its regions — grid index, point states (with coordinates in
//! a per-shard [`CoordArena`]), and expiry lists, plus an index-aligned
//! [`CellStore`] held by the extractor — so a slide's batch of arrivals
//! can be processed by all shards in parallel, with cross-border effects
//! exchanged through typed mailbox messages ([`HistMsg`] for
//! neighbor/histogram updates, [`LinkMsg`] for cell-pair watermark
//! raises) applied only by the owning shard.
//!
//! With `S = 1` the extractor bypasses the phase machinery entirely and
//! runs [`Shard::insert_sequential`] — the original single-threaded C-SGS
//! insertion — so a one-shard configuration is bit-identical to the
//! unsharded implementation.
//!
//! Parallel phases execute as fork-join scopes on the shared
//! [`sgs_exec::Pool`] (`DESIGN.md` §8) — persistent workers, no
//! per-batch thread spawns.

use sgs_core::{CellCoord, GridGeometry, HeapSize, Point, PointId, WindowId};
use sgs_exec::Pool;
use sgs_index::{FxHashMap, GridIndex};
use sgs_stream::ExpiryHistogram;

use crate::cell_store::{fold_by_cell, CellStore, PairRaise};

/// Slab of point coordinates for one shard: `dim` consecutive `f64`s per
/// slot, recycled through a free list. Replaces the former per-point
/// `Box<[f64]>`, so steady-state insertion allocates no per-object
/// coordinate buffer (growth is amortized like a `Vec`).
#[derive(Clone, Debug)]
pub(crate) struct CoordArena {
    dim: usize,
    data: Vec<f64>,
    free: Vec<u32>,
}

impl CoordArena {
    pub(crate) fn new(dim: usize) -> Self {
        assert!(dim > 0);
        CoordArena {
            dim,
            data: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Store `coords`, returning the slot to read them back from.
    pub(crate) fn alloc(&mut self, coords: &[f64]) -> u32 {
        debug_assert_eq!(coords.len(), self.dim);
        if let Some(slot) = self.free.pop() {
            let at = slot as usize * self.dim;
            self.data[at..at + self.dim].copy_from_slice(coords);
            slot
        } else {
            let slot = (self.data.len() / self.dim) as u32;
            self.data.extend_from_slice(coords);
            slot
        }
    }

    /// The coordinates stored in `slot`.
    #[inline]
    pub(crate) fn get(&self, slot: u32) -> &[f64] {
        let at = slot as usize * self.dim;
        &self.data[at..at + self.dim]
    }

    /// Return `slot` to the free list for reuse.
    pub(crate) fn release(&mut self, slot: u32) {
        debug_assert!((slot as usize + 1) * self.dim <= self.data.len());
        self.free.push(slot);
    }

    /// Total slots ever allocated (live + free).
    #[cfg(test)]
    pub(crate) fn slots(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Slots currently holding a live point.
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.slots() - self.free.len()
    }

    /// Retained heap bytes.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.data.capacity() * core::mem::size_of::<f64>()
            + self.free.capacity() * core::mem::size_of::<u32>()
    }
}

/// Per-point state retained by C-SGS.
#[derive(Clone, Debug)]
pub(crate) struct PointState {
    /// Coordinate slot in the owning shard's [`CoordArena`].
    pub slot: u32,
    pub cell: CellCoord,
    pub expires_at: WindowId,
    /// End of the core career (absolute window index); only ever raised.
    pub core_until: u64,
    /// Histogram of neighbor expiries — answers Obs. 5.4 queries in
    /// O(views).
    pub hist: ExpiryHistogram,
    /// Current neighbor ids. Pruned *eagerly* when a neighbor expires (the
    /// expiring point's own list names exactly the live points that
    /// reference it, since neighborship is symmetric), so the list length
    /// is bounded by the live population at all times.
    pub neighbors: Vec<PointId>,
}

/// Cross-shard message: new point `p` is a neighbor of pre-existing point
/// `q`; `q`'s owner appends `p` to `q`'s neighbor list and histogram.
#[derive(Clone, Copy, Debug)]
pub(crate) struct HistMsg {
    pub q: PointId,
    pub p: PointId,
    pub p_expires: WindowId,
}

/// Cross-shard message: raise the pair-link watermarks stored `at` a cell
/// (owned by the receiving shard) for its relation to `other`.
#[derive(Clone, Debug)]
pub(crate) struct LinkMsg {
    pub at: CellCoord,
    pub other: CellCoord,
    pub core_core: u64,
    pub attach: u64,
}

/// Discovery result for one new point (phase B of the sharded batch).
/// Neighbor entries carry their owning shard so the link phase can read
/// each neighbor's final state with one lookup instead of probing.
#[derive(Debug)]
pub(crate) struct NewPointPlan {
    pub id: PointId,
    pub neighbors: Vec<(PointId, u32)>,
    pub hist: ExpiryHistogram,
    pub core_until: u64,
}

/// One extraction shard: the C-SGS state for the grid regions it owns.
///
/// The shard's *skeletal cell store* lives outside this struct (in a
/// parallel vector owned by the extractor): the link phase reads every
/// shard's points while writing its own cell store, and splitting the two
/// lets the borrow checker prove that safe.
#[derive(Debug)]
pub(crate) struct Shard {
    pub index: GridIndex,
    pub points: FxHashMap<PointId, PointState>,
    /// Points to drop when each window becomes current.
    pub expiry: FxHashMap<u64, Vec<PointId>>,
    pub arena: CoordArena,
    /// Range-query scratch for the sequential path.
    scratch: Vec<(PointId, CellCoord, WindowId)>,
}

impl Shard {
    pub(crate) fn new(geometry: GridGeometry) -> Self {
        let dim = geometry.dim();
        Shard {
            index: GridIndex::new(geometry),
            points: FxHashMap::default(),
            expiry: FxHashMap::default(),
            arena: CoordArena::new(dim),
            scratch: Vec::new(),
        }
    }

    /// Retained meta-data bytes of this shard (its cell store is accounted
    /// separately by the extractor).
    pub(crate) fn meta_bytes(&self) -> usize {
        let pts: usize = self
            .points
            .values()
            .map(|p| p.cell.heap_size() + p.neighbors.capacity() * 4 + p.hist.heap_bytes())
            .sum();
        pts + self.arena.heap_bytes() + HeapSize::heap_size(&self.index)
    }

    // ------------------------------------------------------------------
    // Sharded phases (S > 1). Phase A: load the point into the shard's
    // structures with placeholder career state; discovery fills it in.
    // ------------------------------------------------------------------

    pub(crate) fn load(
        &mut self,
        cells: &mut CellStore,
        id: PointId,
        point: &Point,
        expires_at: WindowId,
    ) {
        let cell = self.index.insert_expiring(id, point, expires_at);
        cells.increment_population(&cell);
        self.expiry.entry(expires_at.0).or_default().push(id);
        let slot = self.arena.alloc(&point.coords);
        self.points.insert(
            id,
            PointState {
                slot,
                cell,
                expires_at,
                core_until: 0,
                hist: ExpiryHistogram::new(),
                neighbors: Vec::new(),
            },
        );
    }

    /// Phase C: install discovery results for this shard's new points and
    /// drain the histogram inbox for its pre-existing points. The plans
    /// are left in place (minus their histograms) for the link phase.
    /// Returns the sorted, deduplicated set of points whose core career
    /// extended.
    pub(crate) fn apply_batch(
        &mut self,
        cells: &mut CellStore,
        plans: &mut [NewPointPlan],
        inbox: &mut Vec<HistMsg>,
        now: WindowId,
        theta_c: u32,
    ) -> Vec<PointId> {
        for plan in plans.iter_mut() {
            let cu = plan.core_until;
            let st = self.points.get_mut(&plan.id).expect("loaded in phase A");
            st.neighbors = plan.neighbors.iter().map(|(q, _)| *q).collect();
            st.hist = std::mem::take(&mut plan.hist);
            st.core_until = cu;
            if cu > now.0 {
                cells.raise_core_until(&st.cell, cu);
            }
        }
        let mut extended = Vec::new();
        for msg in inbox.drain(..) {
            let Some(st) = self.points.get_mut(&msg.q) else {
                continue; // defensively skip; senders only target live points
            };
            st.neighbors.push(msg.p);
            st.hist.add(msg.p_expires);
            let new_cu = st.hist.core_until(st.expires_at, now, theta_c).0;
            if new_cu > st.core_until {
                st.core_until = new_cu;
                cells.raise_core_until(&st.cell, new_cu);
                extended.push(msg.q);
            }
        }
        extended.sort_unstable();
        extended.dedup();
        extended
    }

    /// Adopt a live point moved from another shard during adaptive
    /// re-sharding: re-index its coordinates and expiry here and take
    /// over its career state unchanged (watermarks, histogram, and
    /// neighbor list are shard-placement-independent).
    pub(crate) fn adopt(&mut self, id: PointId, coords: &[f64], mut state: PointState) {
        self.index
            .insert_at(&state.cell, id, coords, state.expires_at);
        self.expiry.entry(state.expires_at.0).or_default().push(id);
        state.slot = self.arena.alloc(coords);
        self.points.insert(id, state);
    }

    /// Slide: drop this shard's points expiring at `now`, returning each
    /// dead point's id and neighbor list (the input to eager cross-shard
    /// neighbor pruning).
    pub(crate) fn remove_expired(
        &mut self,
        cells: &mut CellStore,
        now: WindowId,
    ) -> Vec<(PointId, Vec<PointId>)> {
        let Some(dead) = self.expiry.remove(&now.0) else {
            return Vec::new();
        };
        let mut removed = Vec::with_capacity(dead.len());
        for id in dead {
            if let Some(p) = self.points.remove(&id) {
                self.index.remove(id, &p.cell);
                cells.decrement_population(&p.cell);
                self.arena.release(p.slot);
                removed.push((id, p.neighbors));
            }
        }
        removed
    }

    /// Eagerly remove the ids of dead points from this shard's neighbor
    /// lists. `dead` is the union of all shards' [`remove_expired`]
    /// results; entries referencing other shards' points are skipped by
    /// the ownership lookup itself.
    ///
    /// [`remove_expired`]: Self::remove_expired
    pub(crate) fn prune_dead(&mut self, dead: &[(PointId, Vec<PointId>)]) {
        for (dead_id, nbs) in dead {
            for nb in nbs {
                if let Some(st) = self.points.get_mut(nb) {
                    if let Some(pos) = st.neighbors.iter().position(|x| x == dead_id) {
                        st.neighbors.swap_remove(pos);
                    }
                }
            }
        }
    }

    /// Post-slide maintenance: collect dead cell-store state; periodically
    /// trim histogram buckets that can no longer affect any query.
    pub(crate) fn maintain(&mut self, cells: &mut CellStore, now: WindowId) {
        cells.gc(now);
        if now.0.is_multiple_of(8) {
            for st in self.points.values_mut() {
                st.hist.prune(now);
            }
        }
    }

    // ------------------------------------------------------------------
    // The sequential path (S = 1): the original per-point C-SGS insertion,
    // §5.4 steps 1–6, entirely shard-local.
    // ------------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn insert_sequential(
        &mut self,
        cells: &mut CellStore,
        id: PointId,
        point: &Point,
        expires_at: WindowId,
        now: WindowId,
        theta_r: f64,
        theta_c: u32,
    ) {
        // 1. One range query search.
        self.scratch.clear();
        self.index
            .range_query_with_cells(&point.coords, theta_r, id, &mut self.scratch);
        let neighbors_found = std::mem::take(&mut self.scratch);

        // 2. Load into the grid and the cell store.
        let cell = self.index.insert_expiring(id, point, expires_at);
        cells.increment_population(&cell);
        self.expiry.entry(expires_at.0).or_default().push(id);
        let slot = self.arena.alloc(&point.coords);

        // 3. The new object's own career (Obs. 5.4) → status promotion.
        // Neighbor expiries ride inline in the grid entries, so the
        // histogram is built without touching the point map.
        let mut hist = ExpiryHistogram::new();
        let mut neighbor_ids = Vec::with_capacity(neighbors_found.len());
        for (q_id, _, q_exp) in &neighbors_found {
            hist.add(*q_exp);
            neighbor_ids.push(*q_id);
        }
        let p_core_until = hist.core_until(expires_at, now, theta_c).0;
        if p_core_until > now.0 {
            cells.raise_core_until(&cell, p_core_until);
        }

        // 4. Neighbors gain the new object; extended careers prolong their
        //    cells' status and re-evaluate their links.
        let mut extended: Vec<PointId> = Vec::new();
        for (q_id, q_cell, _) in &neighbors_found {
            let q = self.points.get_mut(q_id).expect("live neighbor");
            q.neighbors.push(id);
            q.hist.add(expires_at);
            let new_cu = q.hist.core_until(q.expires_at, now, theta_c).0;
            if new_cu > q.core_until {
                q.core_until = new_cu;
                cells.raise_core_until(q_cell, new_cu);
                extended.push(*q_id);
            }
        }

        // 5. Raise pair links for (p, q) pairs, then store the point.
        // Intra-cell pairs are connected by Lemma 4.1 and carry no link.
        let pairs = neighbors_found
            .iter()
            .filter(|(_, q_cell, _)| *q_cell != cell)
            .map(|(q_id, q_cell, _)| {
                let q = &self.points[q_id];
                let raise =
                    PairRaise::new(p_core_until, expires_at.0, q.core_until, q.expires_at.0);
                (q_cell, (), raise)
            });
        fold_by_cell(pairs, |q_cell, (), raise| {
            cells.raise_pair(&cell, q_cell, raise)
        });
        self.points.insert(
            id,
            PointState {
                slot,
                cell,
                expires_at,
                core_until: p_core_until,
                hist,
                neighbors: neighbor_ids,
            },
        );

        // 6. Connection prolong: extended careers touch all their pairs.
        for q_id in extended {
            self.propagate_extension(cells, q_id);
        }
        self.scratch = neighbors_found;
    }

    /// Re-evaluate all cell-pair links of `q` after its core career
    /// extended (the connection-prolong path; sequential only).
    fn propagate_extension(&self, cells: &mut CellStore, q_id: PointId) {
        let q = &self.points[&q_id];
        for r_id in &q.neighbors {
            let Some(r) = self.points.get(r_id) else {
                continue; // expired; lists are pruned at the next slide
            };
            if r.cell != q.cell {
                let (q_exp, r_exp) = (q.expires_at.0, r.expires_at.0);
                cells.update_pair(&q.cell, &r.cell, q.core_until, q_exp, r.core_until, r_exp);
            }
        }
    }

    /// Slide for the sequential path: expiry plus local eager pruning.
    pub(crate) fn expire_local(&mut self, cells: &mut CellStore, now: WindowId) {
        let removed = self.remove_expired(cells, now);
        self.prune_dead(&removed);
    }
}

/// The live state of a point and its owning shard's index. Ownership is
/// resolved by probing each shard's map; a point exists in exactly one.
pub(crate) fn resolve(shards: &[Shard], id: PointId) -> Option<(usize, &PointState)> {
    shards
        .iter()
        .enumerate()
        .find_map(|(i, sh)| sh.points.get(&id).map(|p| (i, p)))
}

/// Run `f(i, &mut items[i])` for every element — forked onto `pool` (one
/// scope task per element) when `parallel`, inline otherwise. The
/// building block of every sharded phase: phases either mutate only
/// their own shard's state (elements are the shards) or only their own
/// scratch while reading all shards (elements are per-shard scratches).
/// Fork-join on the persistent pool replaces the former per-batch
/// `std::thread::scope` spawns (`DESIGN.md` §8).
pub(crate) fn for_each_par<T: Send>(
    pool: &Pool,
    parallel: bool,
    items: &mut [T],
    f: impl Fn(usize, &mut T) + Sync,
) {
    if !parallel || items.len() <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
    } else {
        let f = &f;
        pool.scope(|scope| {
            for (i, item) in items.iter_mut().enumerate() {
                scope.spawn(move || f(i, item));
            }
        });
    }
}

/// Like [`for_each_par`] but over three parallel slices (e.g. shards,
/// their cell stores, and their inboxes).
pub(crate) fn for_each_par3<A: Send, B: Send, C: Send>(
    pool: &Pool,
    parallel: bool,
    a: &mut [A],
    b: &mut [B],
    c: &mut [C],
    f: impl Fn(usize, &mut A, &mut B, &mut C) + Sync,
) {
    debug_assert!(a.len() == b.len() && b.len() == c.len());
    if !parallel || a.len() <= 1 {
        for (i, ((x, y), z)) in a.iter_mut().zip(b.iter_mut()).zip(c.iter_mut()).enumerate() {
            f(i, x, y, z);
        }
    } else {
        let f = &f;
        pool.scope(|scope| {
            for (i, ((x, y), z)) in a.iter_mut().zip(b.iter_mut()).zip(c.iter_mut()).enumerate() {
                scope.spawn(move || f(i, x, y, z));
            }
        });
    }
}

/// Like [`for_each_par`] but over two parallel slices (e.g. shards plus
/// their inboxes).
pub(crate) fn for_each_par2<A: Send, B: Send>(
    pool: &Pool,
    parallel: bool,
    a: &mut [A],
    b: &mut [B],
    f: impl Fn(usize, &mut A, &mut B) + Sync,
) {
    debug_assert_eq!(a.len(), b.len());
    if !parallel || a.len() <= 1 {
        for (i, (x, y)) in a.iter_mut().zip(b.iter_mut()).enumerate() {
            f(i, x, y);
        }
    } else {
        let f = &f;
        pool.scope(|scope| {
            for (i, (x, y)) in a.iter_mut().zip(b.iter_mut()).enumerate() {
                scope.spawn(move || f(i, x, y));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_recycles_slots() {
        let mut a = CoordArena::new(2);
        let s0 = a.alloc(&[1.0, 2.0]);
        let s1 = a.alloc(&[3.0, 4.0]);
        assert_eq!(a.get(s0), &[1.0, 2.0]);
        assert_eq!(a.get(s1), &[3.0, 4.0]);
        assert_eq!((a.slots(), a.live()), (2, 2));
        a.release(s0);
        assert_eq!(a.live(), 1);
        // The freed slot is reused: no growth.
        let s2 = a.alloc(&[5.0, 6.0]);
        assert_eq!(s2, s0);
        assert_eq!(a.get(s2), &[5.0, 6.0]);
        assert_eq!(a.get(s1), &[3.0, 4.0], "other slots untouched");
        assert_eq!((a.slots(), a.live()), (2, 2));
    }

    #[test]
    fn for_each_par_runs_all_indices() {
        for parallel in [false, true] {
            let mut items = vec![0usize; 7];
            for_each_par(sgs_exec::global(), parallel, &mut items, |i, v| *v = i + 1);
            assert_eq!(items, vec![1, 2, 3, 4, 5, 6, 7]);
        }
    }
}

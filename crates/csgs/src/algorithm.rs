//! The C-SGS algorithm (§5.4): integrated extraction + summarization,
//! sharded by grid region.
//!
//! **Insertion** (the only place structural work happens):
//!
//! 1. one range-query search finds the new object's neighbors (§5.3
//!    guarantees exactly one RQS per object, ever);
//! 2. the object's core career is derived from its neighbors' lifespans
//!    (Obs. 5.4) and pushed into its cell's `core_until` watermark
//!    (status *promotion*, Fig. 6 case 1);
//! 3. each neighbor's expiry histogram gains the new object; careers that
//!    extend push their cells' watermarks (status *prolong* / neighbor
//!    *upgrade*, Fig. 6 case 2) and re-evaluate that neighbor's cell-pair
//!    links;
//! 4. cell-pair links between the new object's cell and each neighbor's
//!    cell are raised per Lemma 5.2.
//!
//! **Expiration** needs no structural work: all watermarks are absolute
//! window indices, so at window `w` liveness is `w < watermark`. The slide
//! handler only drops expired objects' raw data (eagerly pruning their ids
//! from neighbor lists) and emits the output.
//!
//! **Output** (§5.4 output stage): DFS over live core cells through live
//! core-core links forms the cluster skeletons; attached edge cells join
//! their groups; the full representation is derived object-level (cores by
//! career watermark, edges via their live core neighbors).
//!
//! **Sharding** (`DESIGN.md` §6): with `S > 1`
//! ([`ClusterQuery::shards`]), the extraction state is partitioned by
//! hashed grid region across `S` shards, and each between-boundary
//! batch of arrivals runs insertion as five fork-join phases on the
//! shared [`sgs_exec::Pool`] (`DESIGN.md` §8; persistent workers, no
//! per-batch thread spawns) —
//! load, discover (the RQS, read-only across shards), apply (career and
//! histogram updates, shard-local plus a histogram mailbox), link (pair
//! watermark events, read-only), raise (link mailbox drain). Because every
//! watermark update is a monotone max-raise and all of a point's derived
//! quantities depend only on its final within-batch neighbor set, the
//! phased execution reaches exactly the observable state of sequential
//! insertion — which is why [`WindowOutput`] is byte-identical for every
//! shard count, `S = 1` runs the original single-threaded code verbatim,
//! and each object still costs exactly one range-query search.

use sgs_core::{kernel, ClusterQuery, GridGeometry, Point, PointId, WindowId};
use sgs_exec::Pool;
use sgs_index::grid::CellSlab;
use sgs_index::{ReachBlock, ShardRouter};
use sgs_stream::{ExpiryHistogram, WindowConsumer};

use crate::cell_store::{fold_by_cell, CellStore, PairRaise};
use crate::merge;
use crate::output::WindowOutput;
use crate::shard::{
    for_each_par, for_each_par2, for_each_par3, resolve, HistMsg, LinkMsg, NewPointPlan,
    PointState, Shard,
};

/// Batches smaller than this run the sharded phases inline on the calling
/// thread: the phase semantics are identical, but even pool fork-join has
/// enqueue/wake overhead that is not worth paying for a handful of points.
const PAR_BATCH_MIN: usize = 32;

/// Adaptive sharding ([`ShardCount::Auto`]): one shard per this many live
/// points. Below it, a shard's batch slices are too small for the phase
/// fork-join to pay for itself.
const POINTS_PER_SHARD: usize = 256;

/// Adaptive sharding: one shard per this many occupied grid cells. Cells
/// are the unit of routing (via their regions), so fewer occupied cells
/// than this per shard cannot balance load no matter how many points the
/// cells hold.
const CELLS_PER_SHARD: usize = 16;

/// The integrated C-SGS extractor. Implements [`WindowConsumer`]; each
/// slide returns the window's clusters in full + SGS representation.
///
/// The extractor is sharded by grid region when the query asks for more
/// than one shard (see [`ClusterQuery::shards`] and the module docs); the
/// per-window output is byte-identical across shard counts.
pub struct CSgs {
    query: ClusterQuery,
    geometry: GridGeometry,
    router: ShardRouter,
    /// Scheduler the parallel phases fork onto (`DESIGN.md` §8); shared
    /// with every other extractor on the same pool.
    pool: Pool,
    shards: Vec<Shard>,
    /// Per-shard skeletal cell stores, index-aligned with `shards` (kept
    /// outside [`Shard`] so the link phase can write its own store while
    /// reading every shard's points).
    cell_stores: Vec<CellStore>,
    current: WindowId,
    /// Adaptive mode ([`ShardCount::Auto`]): re-partition at window
    /// boundaries from observed grid occupancy instead of holding a
    /// static shard count.
    adaptive: bool,
    /// Upper bound for adaptive shard counts (derived from available
    /// parallelism at construction).
    max_shards: usize,
    /// Number of range query searches executed (one per object, §5.3 —
    /// regardless of shard count).
    pub rqs_count: u64,
}

impl CSgs {
    /// New extractor for `query`, scheduling its parallel phases on the
    /// process-wide [`sgs_exec::global`] pool.
    pub fn new(query: ClusterQuery) -> Self {
        Self::with_pool(query, sgs_exec::global().clone())
    }

    /// New extractor for `query` on an explicit scheduler pool (the
    /// runtime passes its own so every query's phases share one set of
    /// workers).
    pub fn with_pool(query: ClusterQuery, pool: Pool) -> Self {
        let geometry = query.basic_grid();
        // Adaptive mode starts single-sharded: a cold extractor has no
        // occupancy to partition by, and S = 1 is the cheapest
        // configuration for a small live set. `maybe_reshard` raises S
        // once the observed grid justifies it.
        let (s, adaptive) = match query.shards {
            sgs_core::ShardCount::Fixed(n) => ((n as usize).max(1), false),
            sgs_core::ShardCount::Auto => (1, true),
        };
        // Mild over-sharding (2× the worker count) improves fork-join
        // load balance; the floor of 4 keeps adaptation observable — and
        // useful for balance — even on low-core hosts.
        let max_shards = std::thread::available_parallelism()
            .map(|p| p.get() * 2)
            .unwrap_or(1)
            .max(4);
        // Regions one reachability block wide keep most of a point's
        // neighborhood in one region: discovery routes at most 2^d
        // regions per search and most pair raises stay shard-local. The
        // grid indexes list their occupied cells by the same regions.
        let router = ShardRouter::new(geometry.region_width(), s);
        let shards = (0..s).map(|_| Shard::new(geometry.clone())).collect();
        CSgs {
            query,
            geometry,
            router,
            pool,
            shards,
            cell_stores: (0..s).map(|_| CellStore::new()).collect(),
            current: WindowId(0),
            adaptive,
            max_shards,
            rqs_count: 0,
        }
    }

    /// The shard count the adaptive policy wants for the current grid
    /// occupancy: enough live points *and* enough occupied cells per
    /// shard to keep every phase slice worth forking, capped by the
    /// host's parallelism budget.
    fn adaptive_target(&self) -> usize {
        let live: usize = self.shards.iter().map(|sh| sh.points.len()).sum();
        let cells: usize = self.shards.iter().map(|sh| sh.index.cell_count()).sum();
        (live / POINTS_PER_SHARD)
            .min(cells / CELLS_PER_SHARD)
            .clamp(1, self.max_shards)
    }

    /// Re-partition all live extraction state onto `new_s` shards.
    ///
    /// Every watermark, histogram, and neighbor list is independent of
    /// which shard holds it — sharding is pure routing — so the move is
    /// wholesale: points re-index under the new router in id order
    /// (matching the arrival order a fixed-`new_s` run would have used),
    /// and each cell's state transfers untouched to its new owning
    /// store. The observable output stays byte-identical to every fixed
    /// shard count (the `shard_invariance` contract).
    fn reshard(&mut self, new_s: usize) {
        let dim = self.query.dim;
        let old_shards = std::mem::take(&mut self.shards);
        let old_stores = std::mem::take(&mut self.cell_stores);
        self.router = ShardRouter::new(self.geometry.region_width(), new_s);
        self.shards = (0..new_s)
            .map(|_| Shard::new(self.geometry.clone()))
            .collect();
        self.cell_stores = (0..new_s).map(|_| CellStore::new()).collect();

        let mut moving: Vec<(PointId, PointState, usize)> = Vec::new();
        let mut coords: Vec<f64> = Vec::new();
        for mut sh in old_shards {
            for (id, st) in sh.points.drain() {
                let at = coords.len();
                coords.extend_from_slice(sh.arena.get(st.slot));
                moving.push((id, st, at));
            }
        }
        moving.sort_unstable_by_key(|(id, _, _)| *id);
        for (id, st, at) in moving {
            let home = self.router.shard_of(&st.cell);
            self.shards[home].adopt(id, &coords[at..at + dim], st);
        }
        for mut store in old_stores {
            for (coord, state) in store.drain() {
                let home = self.router.shard_of(&coord);
                self.cell_stores[home].insert_state(coord, state);
            }
        }
    }

    /// The query this extractor runs.
    pub fn query(&self) -> &ClusterQuery {
        &self.query
    }

    /// The number of extraction shards in use.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of live points.
    pub fn live_len(&self) -> usize {
        self.shards.iter().map(|sh| sh.points.len()).sum()
    }

    /// Coordinates of a live point (for building member sets from output).
    pub fn coords_of(&self, id: PointId) -> Option<&[f64]> {
        self.shards
            .iter()
            .find_map(|sh| sh.points.get(&id).map(|p| sh.arena.get(p.slot)))
    }

    /// Approximate bytes of retained meta-data. Unlike Extra-N this is
    /// independent of `win/slide` — no per-view state exists.
    pub fn meta_bytes(&self) -> usize {
        self.shards.iter().map(Shard::meta_bytes).sum::<usize>()
            + self
                .cell_stores
                .iter()
                .map(CellStore::heap_bytes)
                .sum::<usize>()
    }

    /// Single-point insertion with S > 1 (the per-point [`WindowConsumer`]
    /// path): a batch of one can never parallelize, so this runs the
    /// sequential insertion steps directly against the routed shard state
    /// instead of paying the five-phase scaffolding. The event sequence is
    /// exactly [`Shard::insert_sequential`]'s, with each touched point and
    /// cell resolved to its owning shard.
    fn insert_one_sharded(&mut self, id: PointId, point: &Point, expires_at: WindowId) {
        let CSgs {
            ref query,
            ref geometry,
            ref router,
            ref mut shards,
            ref mut cell_stores,
            current: now,
            ..
        } = *self;
        let theta_c = query.theta_c;
        let theta_sq = query.theta_r_sq();
        let home = router.shard_of_coords(&point.coords, geometry.side());

        // 1 + 2. Load, then the one range query search across shards.
        shards[home].load(&mut cell_stores[home], id, point, expires_at);
        let center = shards[home].points[&id].cell.clone();
        let mut hist = ExpiryHistogram::new();
        let mut neighbors: Vec<(PointId, u32)> = Vec::new();
        {
            let shards = &*shards;
            let mut walker = NeighborCellWalker::new(geometry, router);
            walker.visit(shards, router, &point.coords, theta_sq, |owner, slab| {
                // Whole-cell batch distance pass; the self-exclusion
                // branch runs once per match, not once per candidate.
                kernel::for_each_within(&point.coords, slab.coords(), theta_sq, |j| {
                    let e_id = slab.id(j);
                    if e_id != id {
                        // Expiry rides inline in the cell slab — no
                        // point-map lookup on the discovery hot path.
                        hist.add(slab.expires_at(j));
                        neighbors.push((e_id, owner));
                    }
                });
            });
        }
        self.rqs_count += 1;

        // 3. The new object's own career → status promotion.
        let p_cu = hist.core_until(expires_at, now, theta_c).0;
        {
            let st = shards[home].points.get_mut(&id).expect("just loaded");
            st.neighbors = neighbors.iter().map(|(q, _)| *q).collect();
            st.hist = hist;
            st.core_until = p_cu;
        }
        if p_cu > now.0 {
            cell_stores[home].raise_core_until(&center, p_cu);
        }

        // 4. Neighbors gain the new object; extended careers prolong.
        let mut extended: Vec<(PointId, u32)> = Vec::new();
        for &(q_id, owner) in &neighbors {
            let q = shards[owner as usize]
                .points
                .get_mut(&q_id)
                .expect("live neighbor");
            q.neighbors.push(id);
            q.hist.add(expires_at);
            let new_cu = q.hist.core_until(q.expires_at, now, theta_c).0;
            if new_cu > q.core_until {
                q.core_until = new_cu;
                cell_stores[owner as usize].raise_core_until(&q.cell, new_cu);
                extended.push((q_id, owner));
            }
        }

        // 5. Pair links for (p, q) pairs, both sides routed; intra-cell
        // pairs carry no link (Lemma 4.1).
        let shards = &*shards;
        let pairs = neighbors.iter().filter_map(|&(q_id, owner)| {
            let q = &shards[owner as usize].points[&q_id];
            let raise = PairRaise::new(p_cu, expires_at.0, q.core_until, q.expires_at.0);
            (q.cell != center).then_some((&q.cell, owner as usize, raise))
        });
        fold_by_cell(pairs, |q_cell, owner, raise| {
            cell_stores[home].raise_link(&center, q_cell, raise.core_core, raise.attach_out);
            cell_stores[owner].raise_link(q_cell, &center, raise.core_core, raise.attach_in);
        });

        // 6. Connection prolong: extended careers touch all their pairs.
        for (q_id, owner) in extended {
            let q = &shards[owner as usize].points[&q_id];
            for &r_id in &q.neighbors {
                let Some((r_owner, r)) = resolve(shards, r_id) else {
                    continue; // pruned-late id of an expired point
                };
                if r.cell == q.cell {
                    continue;
                }
                let raise =
                    PairRaise::new(q.core_until, q.expires_at.0, r.core_until, r.expires_at.0);
                cell_stores[owner as usize].raise_link(
                    &q.cell,
                    &r.cell,
                    raise.core_core,
                    raise.attach_out,
                );
                cell_stores[r_owner].raise_link(&r.cell, &q.cell, raise.core_core, raise.attach_in);
            }
        }
    }

    /// Phased parallel insertion of one between-boundary batch (S > 1).
    /// `items` arrive in id order, with ids greater than every previously
    /// inserted id (the window engine's arrival numbering).
    fn sharded_batch(&mut self, items: &[(PointId, &Point, WindowId)]) {
        if items.is_empty() {
            return;
        }
        let CSgs {
            ref query,
            ref geometry,
            ref router,
            ref pool,
            ref mut shards,
            ref mut cell_stores,
            current: now,
            ..
        } = *self;
        let s = shards.len();
        let theta_c = query.theta_c;
        let theta_sq = query.theta_r_sq();
        let batch_first = items[0].0;
        let parallel = items.len() >= PAR_BATCH_MIN;

        // Bucket the batch by owning shard (allocation-free routing).
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); s];
        for (ix, (_, point, _)) in items.iter().enumerate() {
            buckets[router.shard_of_coords(&point.coords, geometry.side())].push(ix as u32);
        }

        // Phase A — load: each shard inserts its own points (grid bucket,
        // population, expiry, arena slot, placeholder career state).
        for_each_par2(pool, parallel, shards, cell_stores, |i, sh, cells| {
            for &ix in &buckets[i] {
                let (id, point, expires) = items[ix as usize];
                sh.load(cells, id, point, expires);
            }
        });

        // Phase B — discover (read-only over all shards): the one range
        // query search per new point, across its own and adjacent regions'
        // grids. Produces each point's full within-batch neighbor set,
        // histogram, and final core career, plus histogram messages for
        // pre-existing neighbors (new neighbors discover each other
        // symmetrically and need no message).
        struct Discover {
            plans: Vec<NewPointPlan>,
            out: Vec<Vec<HistMsg>>,
        }
        let mut disc: Vec<Discover> = (0..s)
            .map(|_| Discover {
                plans: Vec::new(),
                out: vec![Vec::new(); s],
            })
            .collect();
        {
            let shards = &*shards;
            for_each_par(pool, parallel, &mut disc, |i, sc| {
                let mut walker = NeighborCellWalker::new(geometry, router);
                for &ix in &buckets[i] {
                    let (p_id, point, p_exp) = items[ix as usize];
                    let mut hist = ExpiryHistogram::new();
                    let mut neighbors = Vec::new();
                    walker.visit(shards, router, &point.coords, theta_sq, |owner, slab| {
                        kernel::for_each_within(&point.coords, slab.coords(), theta_sq, |j| {
                            let e_id = slab.id(j);
                            if e_id != p_id {
                                // Inline slab expiry: no point-map lookup
                                // per neighbor in the discover phase.
                                hist.add(slab.expires_at(j));
                                neighbors.push((e_id, owner));
                                if e_id < batch_first {
                                    sc.out[owner as usize].push(HistMsg {
                                        q: e_id,
                                        p: p_id,
                                        p_expires: p_exp,
                                    });
                                }
                            }
                        });
                    });
                    let core_until = hist.core_until(p_exp, now, theta_c).0;
                    sc.plans.push(NewPointPlan {
                        id: p_id,
                        neighbors,
                        hist,
                        core_until,
                    });
                }
            });
        }
        // Route the histogram mailboxes (senders in shard order, each
        // sender's messages in discovery order — deterministic).
        struct Apply {
            plans: Vec<NewPointPlan>,
            inbox: Vec<HistMsg>,
            /// Pre-existing points whose core career extended (phase C
            /// output, consumed by phase D).
            extended: Vec<PointId>,
        }
        let mut apply: Vec<Apply> = (0..s)
            .map(|_| Apply {
                plans: Vec::new(),
                inbox: Vec::new(),
                extended: Vec::new(),
            })
            .collect();
        for sc in &mut disc {
            for (dst, msgs) in sc.out.iter_mut().enumerate() {
                apply[dst].inbox.append(msgs);
            }
        }
        for (i, sc) in disc.into_iter().enumerate() {
            apply[i].plans = sc.plans;
        }

        // Phase C — apply (shard-local writes): install the new points'
        // career state, drain the histogram inbox, record extensions.
        for_each_par3(
            pool,
            parallel,
            shards,
            cell_stores,
            &mut apply,
            |_, sh, cells, ap| {
                ap.extended = sh.apply_batch(cells, &mut ap.plans, &mut ap.inbox, now, theta_c);
            },
        );

        // Phase D — link: with every career now final, raise the pair
        // watermarks for all new pairs and all extended points' pairs.
        // Each task owns its shard's cell store and applies locally-owned
        // sides in place (allocation-free for established links); only
        // sides owned by *other* shards become mailbox messages. Raises
        // are idempotent max-updates, so symmetric double-discovery of a
        // new-new pair is harmless.
        let mut link_out: Vec<Vec<Vec<LinkMsg>>> = vec![Vec::new(); s];
        {
            let shards = &*shards;
            let apply = &apply;
            for_each_par2(
                pool,
                parallel,
                cell_stores,
                &mut link_out,
                |i, cells, out| {
                    out.resize_with(s, Vec::new);
                    for plan in &apply[i].plans {
                        let p = &shards[i].points[&plan.id];
                        // Intra-cell pairs carry no link (Lemma 4.1).
                        let pairs = plan.neighbors.iter().filter_map(|&(q_id, owner)| {
                            let q = shards[owner as usize]
                                .points
                                .get(&q_id)
                                .expect("batch neighbors are live");
                            let raise = PairRaise::new(
                                p.core_until,
                                p.expires_at.0,
                                q.core_until,
                                q.expires_at.0,
                            );
                            (q.cell != p.cell).then_some((&q.cell, owner as usize, raise))
                        });
                        fold_by_cell(pairs, |q_cell, owner, raise| {
                            cells.raise_link(&p.cell, q_cell, raise.core_core, raise.attach_out);
                            if owner == i {
                                cells.raise_link(q_cell, &p.cell, raise.core_core, raise.attach_in);
                            } else {
                                out[owner].push(LinkMsg {
                                    at: q_cell.clone(),
                                    other: p.cell.clone(),
                                    core_core: raise.core_core,
                                    attach: raise.attach_in,
                                });
                            }
                        });
                    }
                    for q_id in &apply[i].extended {
                        let q = &shards[i].points[q_id];
                        for &r_id in &q.neighbors {
                            let Some((r_owner, r)) = resolve(shards, r_id) else {
                                continue; // pruned-late id of an expired point
                            };
                            if r.cell == q.cell {
                                continue;
                            }
                            let raise = PairRaise::new(
                                q.core_until,
                                q.expires_at.0,
                                r.core_until,
                                r.expires_at.0,
                            );
                            cells.raise_link(&q.cell, &r.cell, raise.core_core, raise.attach_out);
                            if r_owner == i {
                                cells.raise_link(
                                    &r.cell,
                                    &q.cell,
                                    raise.core_core,
                                    raise.attach_in,
                                );
                            } else {
                                out[r_owner].push(LinkMsg {
                                    at: r.cell.clone(),
                                    other: q.cell.clone(),
                                    core_core: raise.core_core,
                                    attach: raise.attach_in,
                                });
                            }
                        }
                    }
                },
            );
        }
        let mut link_in: Vec<Vec<LinkMsg>> = vec![Vec::new(); s];
        for out in &mut link_out {
            for (dst, msgs) in out.iter_mut().enumerate() {
                link_in[dst].append(msgs);
            }
        }

        // Phase E — raise: drain the cross-shard link mailboxes.
        for_each_par2(
            pool,
            parallel,
            cell_stores,
            &mut link_in,
            |_, cells, inbox| {
                for msg in inbox.drain(..) {
                    cells.raise_link(&msg.at, &msg.other, msg.core_core, msg.attach);
                }
            },
        );

        self.rqs_count += items.len() as u64;
    }
}

/// The range-query walk over sharded grids: the [`GridIndex`] walk
/// ([`ReachBlock`]), with each region of the reachability block scanned
/// by the index of the shard that owns it. The region is the router's
/// unit, so each region is routed once and its cells need no routing.
/// Cells come in region order, then coordinate order, not the odometer
/// order of [`GridGeometry::reachable_cells`]; discovery does not depend
/// on the order.
///
/// [`GridIndex`]: sgs_index::GridIndex
struct NeighborCellWalker {
    block: ReachBlock,
}

impl NeighborCellWalker {
    fn new(geometry: &GridGeometry, router: &ShardRouter) -> Self {
        debug_assert_eq!(router.width(), geometry.region_width());
        NeighborCellWalker {
            block: ReachBlock::new(geometry),
        }
    }

    /// Call `f(owner, slab)` for every occupied, unpruned grid cell
    /// within reach of `coords`, across all shards.
    fn visit<'a>(
        &mut self,
        shards: &'a [Shard],
        router: &ShardRouter,
        coords: &[f64],
        theta_sq: f64,
        mut f: impl FnMut(u32, &'a CellSlab),
    ) {
        self.block.aim(coords, theta_sq);
        loop {
            let owner = router.shard_of_region(self.block.region());
            shards[owner]
                .index
                .for_each_cell_in_region(&self.block, |_, slab| f(owner as u32, slab));
            if !self.block.next_region() {
                return;
            }
        }
    }
}

impl WindowConsumer for CSgs {
    type Output = WindowOutput;

    fn insert(&mut self, id: PointId, point: &Point, expires_at: WindowId) {
        if self.shards.len() == 1 {
            let (now, theta_r, theta_c) = (self.current, self.query.theta_r, self.query.theta_c);
            self.shards[0].insert_sequential(
                &mut self.cell_stores[0],
                id,
                point,
                expires_at,
                now,
                theta_r,
                theta_c,
            );
            self.rqs_count += 1;
        } else {
            self.insert_one_sharded(id, point, expires_at);
        }
    }

    fn insert_batch(&mut self, items: &[(PointId, Point, WindowId)]) {
        if self.shards.len() == 1 {
            for (id, point, expires_at) in items {
                self.insert(*id, point, *expires_at);
            }
        } else {
            let refs: Vec<(PointId, &Point, WindowId)> =
                items.iter().map(|(id, p, e)| (*id, p, *e)).collect();
            self.sharded_batch(&refs);
        }
    }

    fn slide(&mut self, completed: WindowId) -> WindowOutput {
        debug_assert_eq!(completed, self.current);
        let parallel = self.shards.len() > 1;
        let out = merge::emit(
            self.query.dim,
            self.geometry.side(),
            &self.router,
            &self.pool,
            &self.shards,
            &self.cell_stores,
            completed,
            parallel,
        );

        // Advance and drop expired raw data (no watermark maintenance —
        // the paper's zero-cost expiration property). Dead points' ids are
        // pruned from their neighbors' lists eagerly, so lists stay
        // bounded by the live population.
        self.current = completed.next();
        let now = self.current;
        if !parallel {
            let (sh, cells) = (&mut self.shards[0], &mut self.cell_stores[0]);
            sh.expire_local(cells, now);
            sh.maintain(cells, now);
        } else {
            let mut dead: Vec<Vec<(PointId, Vec<PointId>)>> = vec![Vec::new(); self.shards.len()];
            for_each_par3(
                &self.pool,
                true,
                &mut self.shards,
                &mut self.cell_stores,
                &mut dead,
                |_, sh, cells, d| {
                    *d = sh.remove_expired(cells, now);
                },
            );
            let dead_all: Vec<(PointId, Vec<PointId>)> = dead.into_iter().flatten().collect();
            for_each_par2(
                &self.pool,
                true,
                &mut self.shards,
                &mut self.cell_stores,
                |_, sh, cells| {
                    sh.prune_dead(&dead_all);
                    sh.maintain(cells, now);
                },
            );
        }

        // Adaptive mode: with the window's churn settled, re-partition if
        // the observed occupancy asks for a different shard count.
        if self.adaptive {
            let target = self.adaptive_target();
            if target != self.shards.len() {
                self.reshard(target);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use sgs_cluster::{CanonicalClustering, ExtraN, FullCluster, NaiveClusterer};
    use sgs_core::{ShardCount, WindowSpec};
    use sgs_stream::replay;
    use sgs_summarize::{CellStatus, MemberSet, Sgs};

    fn to_canonical(out: &WindowOutput) -> CanonicalClustering {
        CanonicalClustering::from(
            out.iter()
                .map(|c| FullCluster {
                    cores: c.cores.clone(),
                    edges: c.edges.clone(),
                })
                .collect(),
        )
    }

    fn random_stream(seed: u64, n: usize, extent: f64) -> Vec<Point> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                Point::new(
                    vec![rng.gen_range(0.0..extent), rng.gen_range(0.0..extent)],
                    0,
                )
            })
            .collect()
    }

    #[test]
    fn matches_naive_dbscan_per_window() {
        let spec = WindowSpec::count(100, 20).unwrap();
        let q = ClusterQuery::new(0.25, 4, 2, spec).unwrap();
        let pts = random_stream(42, 600, 3.0);
        let mut naive = NaiveClusterer::new(q.clone());
        let mut csgs = CSgs::new(q);
        let naive_out = replay(spec, pts.clone(), 2, &mut naive).unwrap();
        let csgs_out = replay(spec, pts, 2, &mut csgs).unwrap();
        assert_eq!(naive_out.len(), csgs_out.len());
        for ((w1, a), (w2, b)) in naive_out.iter().zip(csgs_out.iter()) {
            assert_eq!(w1, w2);
            assert_eq!(
                CanonicalClustering::from(a.clone()),
                to_canonical(b),
                "window {w1}"
            );
        }
    }

    #[test]
    fn matches_extra_n_with_many_views() {
        let spec = WindowSpec::count(60, 2).unwrap(); // 30 views
        let q = ClusterQuery::new(0.3, 3, 2, spec).unwrap();
        let pts = random_stream(7, 300, 2.0);
        let mut extra = ExtraN::new(q.clone());
        let mut csgs = CSgs::new(q);
        let extra_out = replay(spec, pts.clone(), 2, &mut extra).unwrap();
        let csgs_out = replay(spec, pts, 2, &mut csgs).unwrap();
        for ((w, a), (_, b)) in extra_out.iter().zip(csgs_out.iter()) {
            assert_eq!(
                CanonicalClustering::from(a.clone()),
                to_canonical(b),
                "window {w}"
            );
        }
    }

    #[test]
    fn incremental_sgs_matches_offline_construction() {
        let spec = WindowSpec::count(80, 16).unwrap();
        let q = ClusterQuery::new(0.3, 3, 2, spec).unwrap();
        let pts = random_stream(13, 400, 2.5);
        let geometry = q.basic_grid();
        let mut csgs = CSgs::new(q);
        let mut engine = sgs_stream::WindowEngine::new(spec, 2);
        let mut outs = Vec::new();
        let mut coords_of: std::collections::HashMap<PointId, Box<[f64]>> = Default::default();
        for (next_id, p) in pts.into_iter().enumerate() {
            coords_of.insert(PointId(next_id as u32), p.coords.clone());
            engine.push(p, &mut csgs, &mut outs).unwrap();
            // Compare at each completed window.
            for (_, clusters) in outs.drain(..) {
                for cluster in &clusters {
                    let members = MemberSet::new(
                        cluster
                            .cores
                            .iter()
                            .map(|id| coords_of[id].clone())
                            .collect(),
                        cluster
                            .edges
                            .iter()
                            .map(|id| coords_of[id].clone())
                            .collect(),
                    );
                    let offline = Sgs::from_members(&members, &geometry);
                    let inc = &cluster.sgs;
                    inc.validate().unwrap();
                    assert_eq!(inc.cells.len(), offline.cells.len(), "cell sets differ");
                    for (a, b) in inc.cells.iter().zip(offline.cells.iter()) {
                        assert_eq!(a.coord, b.coord);
                        assert_eq!(a.status, b.status);
                        assert_eq!(a.connections, b.connections, "cell {:?}", a.coord);
                        if a.status == CellStatus::Core {
                            assert_eq!(a.population, b.population, "cell {:?}", a.coord);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn one_rqs_per_object_ever() {
        let spec = WindowSpec::count(50, 10).unwrap();
        let q = ClusterQuery::new(0.3, 3, 2, spec).unwrap();
        let pts = random_stream(1, 200, 2.0);
        let mut csgs = CSgs::new(q);
        replay(spec, pts, 2, &mut csgs).unwrap();
        assert_eq!(csgs.rqs_count, 200);
    }

    #[test]
    fn meta_bytes_independent_of_views() {
        let pts = random_stream(5, 400, 2.0);
        let mut sizes = Vec::new();
        for slide in [50u64, 10, 2] {
            let spec = WindowSpec::count(100, slide).unwrap();
            let q = ClusterQuery::new(0.3, 3, 2, spec).unwrap();
            let mut csgs = CSgs::new(q);
            replay(spec, pts.clone(), 2, &mut csgs).unwrap();
            sizes.push(csgs.meta_bytes() as f64);
        }
        // C-SGS meta-data must not blow up with view count: allow noise but
        // reject the Extra-N-style multiplicative growth (50/2 = 25 views).
        assert!(
            sizes[2] < sizes[0] * 3.0,
            "meta bytes grew with views: {sizes:?}"
        );
    }

    #[test]
    fn empty_stream_produces_empty_windows() {
        let spec = WindowSpec::count(4, 2).unwrap();
        let q = ClusterQuery::new(0.5, 2, 2, spec).unwrap();
        let mut csgs = CSgs::new(q);
        // Far-apart singletons → no clusters.
        let pts: Vec<Point> = (0..8)
            .map(|i| Point::new(vec![i as f64 * 100.0, 0.0], 0))
            .collect();
        let outs = replay(spec, pts, 2, &mut csgs).unwrap();
        assert!(outs.iter().all(|(_, o)| o.is_empty()));
    }

    #[test]
    fn output_population_matches_live_members() {
        let spec = WindowSpec::count(30, 10).unwrap();
        let q = ClusterQuery::new(0.5, 2, 2, spec).unwrap();
        // One tight blob that persists across windows.
        let pts: Vec<Point> = (0..60)
            .map(|i| Point::new(vec![(i % 5) as f64 * 0.1, (i % 7) as f64 * 0.1], 0))
            .collect();
        let mut csgs = CSgs::new(q);
        let outs = replay(spec, pts, 2, &mut csgs).unwrap();
        for (w, clusters) in &outs {
            assert_eq!(clusters.len(), 1, "window {w}");
            let c = &clusters[0];
            assert_eq!(c.population(), 30, "window {w}");
            assert_eq!(c.sgs.population(), 30, "window {w}");
        }
    }

    /// Run a stream through the extractor with `shards`, via batched
    /// pushes, collecting every window's output.
    fn run_sharded(
        pts: &[Point],
        spec: WindowSpec,
        shards: ShardCount,
        chunk: usize,
    ) -> (Vec<(WindowId, WindowOutput)>, CSgs) {
        let q = ClusterQuery::new(0.25, 4, 2, spec)
            .unwrap()
            .with_shards(shards);
        let mut csgs = CSgs::new(q);
        let mut engine = sgs_stream::WindowEngine::new(spec, 2);
        let mut outs = Vec::new();
        for c in pts.chunks(chunk) {
            engine
                .push_batch(c.iter().cloned(), &mut csgs, &mut outs)
                .unwrap();
        }
        (outs, csgs)
    }

    #[test]
    fn sharded_output_is_byte_identical_to_single_shard() {
        let spec = WindowSpec::count(120, 30).unwrap();
        let pts = random_stream(99, 700, 3.0);
        let (base, base_csgs) = run_sharded(&pts, spec, ShardCount::Fixed(1), 64);
        assert!(base.iter().any(|(_, o)| !o.is_empty()), "workload clusters");
        for s in [2usize, 3, 5] {
            let (out, csgs) = run_sharded(&pts, spec, ShardCount::Fixed(s as u32), 64);
            assert_eq!(csgs.shard_count(), s);
            assert_eq!(base, out, "S = {s} diverged from S = 1");
            assert_eq!(csgs.rqs_count, base_csgs.rqs_count);
            assert_eq!(csgs.live_len(), base_csgs.live_len());
        }
    }

    #[test]
    fn sharded_per_point_inserts_match_batched() {
        // The trait `insert` path (batch of one) must agree with segments.
        let spec = WindowSpec::count(60, 20).unwrap();
        let pts = random_stream(3, 240, 2.0);
        let q = ClusterQuery::new(0.25, 4, 2, spec)
            .unwrap()
            .with_shards(ShardCount::Fixed(3));
        let mut csgs = CSgs::new(q);
        let per_point = replay(spec, pts.clone(), 2, &mut csgs).unwrap();
        let (batched, _) = run_sharded(&pts, spec, ShardCount::Fixed(3), 31);
        assert_eq!(per_point, batched);
    }

    #[test]
    fn neighbor_lists_stay_bounded_by_live_population() {
        // Eager pruning: after any number of windows, no point's neighbor
        // list may reference an expired point or exceed the live count.
        let spec = WindowSpec::count(40, 8).unwrap();
        let pts = random_stream(17, 800, 1.2); // dense → large neighbor lists
        for shards in [ShardCount::Fixed(1), ShardCount::Fixed(3)] {
            let (_, csgs) = run_sharded(&pts, spec, shards, 57);
            let live = csgs.live_len();
            assert!(live > 0);
            let all_live: std::collections::HashSet<PointId> = csgs
                .shards
                .iter()
                .flat_map(|sh| sh.points.keys().copied())
                .collect();
            for sh in &csgs.shards {
                for (id, st) in &sh.points {
                    assert!(
                        st.neighbors.len() < live,
                        "point {id:?} holds {} neighbor ids with only {live} live points",
                        st.neighbors.len()
                    );
                    for nb in &st.neighbors {
                        assert!(
                            all_live.contains(nb),
                            "point {id:?} references expired neighbor {nb:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn arena_slots_track_live_points_exactly() {
        let spec = WindowSpec::count(50, 10).unwrap();
        let pts = random_stream(23, 600, 2.0);
        for shards in [ShardCount::Fixed(1), ShardCount::Fixed(4)] {
            let (_, csgs) = run_sharded(&pts, spec, shards, 64);
            for sh in &csgs.shards {
                assert_eq!(
                    sh.arena.live(),
                    sh.points.len(),
                    "arena live slots must equal live points"
                );
                // Recycling bounds total slots by the shard's peak
                // population, far below the 600 points streamed through.
                assert!(sh.arena.slots() <= 2 * 50 + 10);
            }
        }
    }
}

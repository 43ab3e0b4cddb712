//! Range-query speed harness (`DESIGN.md` §13): range-query-search
//! throughput of the grid index against a faithful replica of the
//! pre-§13 path, plus the GED cost-matrix build rate scalar vs batched.
//!
//! The replica is the old index end to end: per-entry `Box<[f64]>`
//! coordinates, one scalar `dist_sq` call and one self-exclusion branch
//! per candidate, and a walk that hash-probes every cell of the
//! `(2·reach+1)^d` reachability block. The index under test scans only
//! the occupied cells listed for the at most `2^d` grid regions the block
//! overlaps, box-prunes them, and feeds whole cell slabs to the batched
//! distance kernel.
//!
//! Both comparisons verify equivalence in-process before timing: the two
//! RQS paths must return identical neighbor sets for every query (the
//! walks visit cells in different orders, so each list is compared
//! sorted), and the two cost-matrix builders must agree bit-for-bit —
//! the contract is *raw speed at zero semantic drift*. The report also
//! gives the longest region list of the live grid, the bound on the
//! cells one region scan can touch.
//!
//! ```text
//! cargo run --release -p sgs-bench --bin kernel_bench -- [--scale 0.1] [--dataset gmti|stt] [--case 1|2|3] [--json]
//! ```
//!
//! `--json` prints one machine-readable report object to stdout instead of
//! the table (CI uploads it as `BENCH_kernels.json`, and the STT run as
//! `BENCH_kernels_stt.json`).

use std::time::Instant;

use sgs_bench::json::JsonObject;
use sgs_bench::obs_report::{metrics_json, parse_metrics};
use sgs_bench::table::print_table;
use sgs_bench::workload::{parse_dataset, parse_scale, Dataset};
use sgs_core::{dist_sq, CellCoord, GridGeometry, Point, PointId};
use sgs_index::{FxHashMap, GridIndex};

/// One entry of the pre-§13 AoS cell layout: id plus its own boxed
/// coordinate allocation (the pointer chase the slab rewrite removed).
struct ScalarEntry {
    id: PointId,
    coords: Box<[f64]>,
}

/// Replica of the grid index as it stood before the SoA rewrite: the same
/// geometry and the same reachability walk, but per-entry heap coordinates
/// scanned with the scalar distance in a per-entry loop.
struct ScalarGrid {
    geometry: GridGeometry,
    cells: FxHashMap<CellCoord, Vec<ScalarEntry>>,
}

impl ScalarGrid {
    fn new(geometry: GridGeometry) -> Self {
        ScalarGrid {
            geometry,
            cells: FxHashMap::default(),
        }
    }

    fn insert(&mut self, id: PointId, point: &Point) {
        let cell = self.geometry.cell_of(point);
        self.cells.entry(cell).or_default().push(ScalarEntry {
            id,
            coords: point.coords.clone(),
        });
    }

    /// Expiry as the pre-§13 index did it: swap-remove the entry from its
    /// cell bucket, dropping its boxed coordinates back to the allocator.
    fn remove(&mut self, id: PointId, cell: &CellCoord) {
        let bucket = self.cells.get_mut(cell).expect("cell exists");
        let pos = bucket.iter().position(|e| e.id == id).expect("id present");
        bucket.swap_remove(pos);
        if bucket.is_empty() {
            self.cells.remove(cell);
        }
    }

    /// The pre-§13 RQS: every cell of the reachability block probed in
    /// odometer order, then a per-entry exclusion check and scalar
    /// `dist_sq`.
    fn range_query(&self, coords: &[f64], theta_r: f64, exclude: PointId, out: &mut Vec<PointId>) {
        let theta_sq = theta_r * theta_r;
        let d = self.geometry.dim();
        let side = self.geometry.side();
        let reach = self.geometry.reach();
        let mut lo = vec![0i32; d];
        let mut hi = vec![0i32; d];
        for i in 0..d {
            let c = (coords[i] / side).floor() as i32;
            lo[i] = c - reach;
            hi[i] = c + reach;
        }
        let mut cell = lo.clone();
        loop {
            if let Some(bucket) = self.cells.get(cell.as_slice()) {
                for e in bucket {
                    if e.id != exclude && dist_sq(coords, &e.coords) <= theta_sq {
                        out.push(e.id);
                    }
                }
            }
            let mut i = 0;
            loop {
                if i == d {
                    return;
                }
                cell[i] += 1;
                if cell[i] <= hi[i] {
                    break;
                }
                cell[i] = lo[i];
                i += 1;
            }
        }
    }
}

/// Build the GED substitution/deletion/insertion cost matrix with the
/// pre-§13 per-pair scalar distance (`dist_sq(..).sqrt()` one pair at a
/// time, exactly what `sgs_core::dist` computed).
fn build_cost_scalar(
    a: &[Box<[f64]>],
    b: &[Box<[f64]>],
    da: &[f64],
    db: &[f64],
    scale: f64,
) -> Vec<f64> {
    let (n, m) = (a.len(), b.len());
    let size = n + m;
    const FORBIDDEN: f64 = 1e12;
    let mut cost = vec![FORBIDDEN; size * size];
    for i in 0..n {
        for j in 0..m {
            let pos = (dist_sq(&a[i], &b[j]).sqrt() / scale).min(1.0);
            cost[i * size + j] = pos + (da[i] - db[j]).abs() / 2.0;
        }
    }
    for i in 0..n {
        cost[i * size + (m + i)] = 1.0 + da[i] / 2.0;
    }
    for j in 0..m {
        cost[(n + j) * size + j] = 1.0 + db[j] / 2.0;
    }
    for i in 0..m {
        for j in 0..n {
            cost[(n + i) * size + (m + j)] = 0.0;
        }
    }
    cost
}

/// The §13 build: flatten `b` into one slab, one batched kernel call per
/// row — the shape `graph_edit_distance` now uses.
fn build_cost_batched(
    a: &[Box<[f64]>],
    b: &[Box<[f64]>],
    da: &[f64],
    db: &[f64],
    scale: f64,
) -> Vec<f64> {
    let (n, m) = (a.len(), b.len());
    let size = n + m;
    const FORBIDDEN: f64 = 1e12;
    let mut cost = vec![FORBIDDEN; size * size];
    let b_slab: Vec<f64> = b.iter().flat_map(|p| p.iter().copied()).collect();
    for i in 0..n {
        let row = &mut cost[i * size..(i + 1) * size];
        let da_i = da[i];
        sgs_core::kernel::for_each_dist_sq(&a[i], &b_slab, |j, d| {
            let pos = (d.sqrt() / scale).min(1.0);
            row[j] = pos + (da_i - db[j]).abs() / 2.0;
        });
    }
    for i in 0..n {
        cost[i * size + (m + i)] = 1.0 + da[i] / 2.0;
    }
    for j in 0..m {
        cost[(n + j) * size + j] = 1.0 + db[j] / 2.0;
    }
    for i in 0..m {
        for j in 0..n {
            cost[(n + i) * size + (m + j)] = 0.0;
        }
    }
    cost
}

/// Passes-per-second of `pass`, measured as the best of three ≥ 0.25 s
/// sustained runs (after one warm-up) — the max filters out scheduler
/// noise, which on a single-core runner easily exceeds the effect under
/// measurement. The checksum keeps the optimizer from discarding the work.
fn sustained_rate(mut pass: impl FnMut() -> u64) -> f64 {
    let mut sink = pass();
    let mut best = 0.0f64;
    for _ in 0..3 {
        let mut passes = 0u64;
        let start = Instant::now();
        loop {
            sink = sink.wrapping_add(pass());
            passes += 1;
            let secs = start.elapsed().as_secs_f64();
            if secs >= 0.25 {
                best = best.max(passes as f64 / secs);
                break;
            }
        }
    }
    std::hint::black_box(sink);
    best
}

struct Row {
    mode: &'static str,
    rate_name: &'static str,
    rate: f64,
    speedup: f64,
    work: u64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = parse_scale(&args);
    let dataset = parse_dataset(&args);
    let json = args.iter().any(|a| a == "--json");
    let metrics = parse_metrics(&args);

    // Fig. 7 geometry: win = 10K tuples, slide = 1K, scaled down for quick
    // runs; §8.1 pattern case selectable with `--case 1|2|3` (default 3 —
    // the widest θr, whose denser cells are where batching pays; cases 1–2
    // keep most cells below one chunk and measure the dispatch overhead
    // instead). The RQS workload is one full window of indexed points,
    // each queried once with self-exclusion — exactly the per-object
    // search C-SGS issues.
    let slide = ((1_000.0 * scale) as u64).max(40);
    let win = slide * 10;
    let case = args
        .iter()
        .position(|a| a == "--case")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .map_or(2, |c| c.clamp(1, 3) - 1);
    let (theta_r, theta_c) = dataset.cases()[case];
    let n_stream = (slide * 12 + 2 * win) as usize;
    let stream = dataset.points(n_stream);
    let geometry = GridGeometry::basic(dataset.dim(), theta_r);

    // Replay the stream with sliding-window expiry through both layouts.
    // This matters for the scalar baseline: the pre-§13 index allocated
    // one coordinate box per live point, so a window's worth of churn
    // leaves the surviving boxes scattered across the heap — exactly the
    // pointer-chasing the slab layout removes. Loading the final window
    // in one pristine burst would hand the old layout a sequential heap
    // it never had in production.
    let mut batched = GridIndex::new(geometry.clone());
    let mut scalar = ScalarGrid::new(geometry.clone());
    let mut arrived = 0usize;
    let mut expired = 0usize;
    while arrived < n_stream {
        let next = (arrived + slide as usize).min(n_stream);
        for (i, p) in stream.iter().enumerate().take(next).skip(arrived) {
            batched.insert(PointId(i as u32), p);
            scalar.insert(PointId(i as u32), p);
        }
        arrived = next;
        let expired_below = arrived.saturating_sub(win as usize);
        for (i, p) in stream.iter().enumerate().take(expired_below).skip(expired) {
            let cell = geometry.cell_of(p);
            assert!(batched.remove(PointId(i as u32), &cell));
            scalar.remove(PointId(i as u32), &cell);
        }
        expired = expired_below;
    }
    // The live set: the last full window of the stream.
    let first_live = n_stream - win as usize;
    let points = &stream[first_live..];
    let n = points.len();
    assert_eq!(batched.len(), n, "live set is one window");

    // Equivalence gate: every query must see the identical neighbor set
    // from both paths before anything is timed.
    let mut total_matches = 0u64;
    {
        let (mut got_b, mut got_s) = (Vec::new(), Vec::new());
        for (i, p) in points.iter().enumerate() {
            let id = PointId((first_live + i) as u32);
            got_b.clear();
            got_s.clear();
            batched.range_query(&p.coords, theta_r, id, &mut got_b);
            scalar.range_query(&p.coords, theta_r, id, &mut got_s);
            got_b.sort_unstable();
            got_s.sort_unstable();
            assert_eq!(got_b, got_s, "RQS results diverged for query {i}");
            total_matches += got_b.len() as u64;
        }
    }

    // The longest region list: the most occupied cells any one region
    // scan can visit.
    let width = geometry.region_width();
    let mut region_cells: FxHashMap<Vec<i32>, u64> = FxHashMap::default();
    for (cell, _) in batched.cells() {
        let region = cell.iter().map(|c| c.div_euclid(width)).collect();
        *region_cells.entry(region).or_default() += 1;
    }
    let longest_region = region_cells.values().copied().max().unwrap_or(0);

    let mut rows: Vec<Row> = Vec::new();

    let mut out = Vec::new();
    let scalar_rqs = n as f64
        * sustained_rate(|| {
            let mut matches = 0u64;
            for (i, p) in points.iter().enumerate() {
                out.clear();
                scalar.range_query(
                    &p.coords,
                    theta_r,
                    PointId((first_live + i) as u32),
                    &mut out,
                );
                matches += out.len() as u64;
            }
            matches
        });
    rows.push(Row {
        mode: "rqs_scalar",
        rate_name: "rqs_per_sec",
        rate: scalar_rqs,
        speedup: 1.0,
        work: total_matches,
    });

    let batched_rqs = n as f64
        * sustained_rate(|| {
            let mut matches = 0u64;
            for (i, p) in points.iter().enumerate() {
                out.clear();
                batched.range_query(
                    &p.coords,
                    theta_r,
                    PointId((first_live + i) as u32),
                    &mut out,
                );
                matches += out.len() as u64;
            }
            matches
        });
    rows.push(Row {
        mode: "rqs_batched",
        rate_name: "rqs_per_sec",
        rate: batched_rqs,
        speedup: batched_rqs / scalar_rqs,
        work: total_matches,
    });

    // GED cost-matrix build: two chain summaries cut from the same stream
    // (sizes echo the SkPS node counts fig8_matching produces). Degrees of
    // a chain: 1 at the ends, 2 inside.
    let ga_n = 64.min(n / 2).max(2);
    let gb_n = 48.min(n / 2).max(2);
    let ga: Vec<Box<[f64]>> = points[..ga_n].iter().map(|p| p.coords.clone()).collect();
    let gb: Vec<Box<[f64]>> = points[n - gb_n..]
        .iter()
        .map(|p| p.coords.clone())
        .collect();
    let chain_deg = |k: usize| -> Vec<f64> {
        (0..k)
            .map(|i| if i == 0 || i + 1 == k { 1.0 } else { 2.0 })
            .collect()
    };
    let (da, db) = (chain_deg(ga_n), chain_deg(gb_n));
    let ged_scale = 10.0 * theta_r;

    let want = build_cost_scalar(&ga, &gb, &da, &db, ged_scale);
    let got = build_cost_batched(&ga, &gb, &da, &db, ged_scale);
    assert_eq!(want.len(), got.len());
    for (k, (w, g)) in want.iter().zip(got.iter()).enumerate() {
        assert_eq!(
            w.to_bits(),
            g.to_bits(),
            "cost matrix diverged at entry {k}: scalar {w} vs batched {g}"
        );
    }

    let scalar_ged = sustained_rate(|| {
        let c = build_cost_scalar(&ga, &gb, &da, &db, ged_scale);
        c.len() as u64
    });
    rows.push(Row {
        mode: "ged_matrix_scalar",
        rate_name: "builds_per_sec",
        rate: scalar_ged,
        speedup: 1.0,
        work: (ga_n * gb_n) as u64,
    });

    let batched_ged = sustained_rate(|| {
        let c = build_cost_batched(&ga, &gb, &da, &db, ged_scale);
        c.len() as u64
    });
    rows.push(Row {
        mode: "ged_matrix_batched",
        rate_name: "builds_per_sec",
        rate: batched_ged,
        speedup: batched_ged / scalar_ged,
        work: (ga_n * gb_n) as u64,
    });

    // The report name carries the dataset so one CI run can keep both
    // reports: the bench-history and regression scripts key on it.
    let (stream_name, bench_name) = match dataset {
        Dataset::Gmti => ("gmti", "kernels"),
        Dataset::Stt => ("stt", "kernels_stt"),
    };
    if json {
        let json_rows: Vec<JsonObject> = rows
            .iter()
            .map(|r| {
                JsonObject::new()
                    .str("mode", r.mode)
                    .f64(r.rate_name, r.rate)
                    .f64("speedup", r.speedup)
                    .u64("work", r.work)
            })
            .collect();
        let report = JsonObject::new()
            .str("bench", bench_name)
            .str("dataset", stream_name)
            .u64("case", case as u64 + 1)
            .u64("tuples", win)
            .u64("win", win)
            .u64("slide", slide)
            .f64("theta_r", theta_r)
            .u64("theta_c", theta_c as u64)
            .u64("matches", total_matches)
            .u64("occupied_cells", batched.cell_count() as u64)
            .u64("regions", region_cells.len() as u64)
            .u64("longest_region_list", longest_region)
            .u64(
                "available_parallelism",
                std::thread::available_parallelism().map_or(0, |p| p.get() as u64),
            )
            .u64("pool_threads", sgs_exec::global().threads() as u64)
            .u64("metrics_enabled", metrics as u64)
            .array("rows", &json_rows)
            .array("metrics", &metrics_json())
            .render();
        println!("{report}");
    } else {
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.mode.to_string(),
                    format!("{:.0} {}", r.rate, r.rate_name),
                    format!("{:.2}x", r.speedup),
                    r.work.to_string(),
                ]
            })
            .collect();
        print_table(
            &format!(
                "range-query speedup — {win} tuples of {stream_name}, \
                 win {win} / slide {slide}, θr={theta_r}, θc={theta_c}; \
                 {} occupied cells in {} regions, longest region list {longest_region}",
                batched.cell_count(),
                region_cells.len()
            ),
            &["mode", "rate", "speedup", "work"],
            &table,
        );
    }
}

//! Golden digests of C-SGS window outputs on the paper's two datasets.
//!
//! Every [`WindowOutput`] of a small 4-d STT stream and a 2-d GMTI
//! stream (paper case 2 on each) is folded into one FNV-1a digest per
//! run: window ids, cluster order, core and edge ids, and every field of
//! each cluster's SGS (side bits, cell coordinates, populations,
//! statuses, connection lists). The constants were recorded from the
//! odometer-order range-query walk; any rewrite of the walk must
//! reproduce them for every shard count, both per point and batched.
//!
//! `shard_invariance` compares shard counts on 2-d streams with positive
//! coordinates only. The third stream here is the STT stream translated
//! to straddle the origin, so cells and grid regions with negative
//! coordinates (where `div_euclid` picks the region) are exercised in
//! 4-d as well.

use streamsum::prelude::*;
use streamsum::summarize::CellStatus;

/// Window length and slide of every run.
const WIN: u64 = 2_000;
const SLIDE: u64 = 500;

fn stt(n: usize) -> Vec<Point> {
    generate_stt(&SttConfig {
        n_records: n,
        ..SttConfig::default()
    })
}

fn gmti(n: usize) -> Vec<Point> {
    generate_gmti(&GmtiConfig {
        n_records: n,
        ..GmtiConfig::default()
    })
}

/// The STT stream moved by `-offset` on every dimension.
fn stt_shifted(n: usize, offset: f64) -> Vec<Point> {
    stt(n)
        .into_iter()
        .map(|p| {
            Point::new(
                p.coords.iter().map(|x| x - offset).collect::<Vec<f64>>(),
                p.ts,
            )
        })
        .collect()
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// FNV-1a over every window of a run, in emission order.
fn digest(windows: &[(WindowId, WindowOutput)]) -> u64 {
    let mut h = Fnv::new();
    for (w, clusters) in windows {
        h.eat(w.0);
        h.eat(clusters.len() as u64);
        for c in clusters {
            h.eat(c.cores.len() as u64);
            for id in &c.cores {
                h.eat(id.0 as u64);
            }
            h.eat(c.edges.len() as u64);
            for id in &c.edges {
                h.eat(id.0 as u64);
            }
            let s = &c.sgs;
            h.eat(s.dim as u64);
            h.eat(s.side.to_bits());
            h.eat(s.level as u64);
            h.eat(s.cells.len() as u64);
            for cell in &s.cells {
                for &x in cell.coord.iter() {
                    h.eat(x as i64 as u64);
                }
                h.eat(cell.population as u64);
                h.eat(match cell.status {
                    CellStatus::Core => 1,
                    CellStatus::Edge => 2,
                });
                h.eat(cell.connections.len() as u64);
                for &k in &cell.connections {
                    h.eat(k as u64);
                }
            }
        }
    }
    h.0
}

/// Run `points` through a fresh extractor with `shards`, pushing `chunk`
/// points per [`WindowEngine::push_batch`] call (1 = the per-point path).
fn run(
    points: &[Point],
    theta_r: f64,
    theta_c: u32,
    dim: usize,
    shards: ShardCount,
    chunk: usize,
) -> Vec<(WindowId, WindowOutput)> {
    let spec = WindowSpec::count(WIN, SLIDE).unwrap();
    let query = ClusterQuery::new(theta_r, theta_c, dim, spec)
        .unwrap()
        .with_shards(shards);
    let mut csgs = CSgs::new(query);
    let mut engine = WindowEngine::new(spec, dim);
    let mut outs = Vec::new();
    for c in points.chunks(chunk) {
        engine
            .push_batch(c.iter().cloned(), &mut csgs, &mut outs)
            .unwrap();
    }
    outs
}

/// Every shard configuration checked against one golden digest.
fn check(name: &str, points: &[Point], theta_r: f64, theta_c: u32, dim: usize, golden: u64) {
    let configs = [
        (ShardCount::Fixed(1), 1),
        (ShardCount::Fixed(1), 97),
        (ShardCount::Fixed(2), 1),
        (ShardCount::Fixed(2), 97),
        (ShardCount::Fixed(4), 97),
        (ShardCount::Auto, 97),
    ];
    for (shards, chunk) in configs {
        let outs = run(points, theta_r, theta_c, dim, shards, chunk);
        assert!(
            outs.iter().any(|(_, c)| !c.is_empty()),
            "{name}: the stream must produce clusters"
        );
        assert_eq!(
            digest(&outs),
            golden,
            "{name}: {shards:?}, chunk {chunk}: window digest changed"
        );
    }
}

#[test]
fn stt_case2_window_digests() {
    check("stt", &stt(6_000), 0.1, 8, 4, 0x412a_5fdd_7328_f4b5);
}

#[test]
fn stt_case2_across_the_origin_window_digests() {
    check(
        "stt-shifted",
        &stt_shifted(6_000, 5.0),
        0.1,
        8,
        4,
        0x2388_339e_a6c5_ce72,
    );
}

#[test]
fn gmti_case2_window_digests() {
    check("gmti", &gmti(8_000), 0.5, 8, 2, 0xb9c5_3b5c_9b0c_fcae);
}

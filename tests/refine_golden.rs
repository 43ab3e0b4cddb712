//! Golden values for the grid-level refine of §7.2, plus the 4-d
//! filter-and-refine contract of `PatternBase::match_query`.
//!
//! The tables below were recorded from the original refine, which built a
//! shifted `CellCoord` per query cell and binary-searched the other
//! summary's cells for every evaluated alignment. Any rewrite of the
//! refine kernel must reproduce them bit for bit: the best shift, the
//! distance's bit pattern and the number of alignments evaluated by
//! `best_alignment`, and the bits of `grid_level_distance`.
//!
//! Inputs are seeded 2-d blobs (core and edge members, so cell statuses,
//! densities and connectivities all vary) and the 4-d summaries C-SGS
//! emits over a small STT stream.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use streamsum::core::GridGeometry;
use streamsum::matching::{best_alignment, cluster_distance, grid_level_distance};
use streamsum::prelude::*;

/// A seeded 2-d blob: a dense core disc plus a ring of sparse edge
/// members, centred at a random cell offset.
fn blob_2d(rng: &mut StdRng) -> Sgs {
    let cx = rng.gen_range(-20.0..20.0);
    let cy = rng.gen_range(-20.0..20.0);
    let r = rng.gen_range(0.6..3.0);
    let n = rng.gen_range(8..60);
    let mut cores: Vec<Box<[f64]>> = Vec::with_capacity(n);
    for _ in 0..n {
        let a = rng.gen_range(0.0..std::f64::consts::TAU);
        let d = r * rng.gen_range(0.0f64..1.0).sqrt();
        cores.push(vec![cx + d * a.cos(), cy + d * a.sin()].into());
    }
    let edges: Vec<Box<[f64]>> = (0..n / 4)
        .map(|_| {
            let a = rng.gen_range(0.0..std::f64::consts::TAU);
            let d = r * rng.gen_range(1.0..1.3);
            vec![cx + d * a.cos(), cy + d * a.sin()].into()
        })
        .collect();
    Sgs::from_members(&MemberSet::new(cores, edges), &GridGeometry::basic(2, 1.0))
}

fn blobs_2d() -> Vec<Sgs> {
    let mut rng = StdRng::seed_from_u64(0x601D);
    (0..24).map(|_| blob_2d(&mut rng)).collect()
}

/// Every cluster summary single-shard C-SGS emits over a small STT stream
/// (paper case 2: θr = 0.1, θc = 8), in emission order.
fn stt_summaries() -> Vec<Sgs> {
    let points = generate_stt(&SttConfig {
        n_records: 6_000,
        ..SttConfig::default()
    });
    let spec = WindowSpec::count(2000, 500).unwrap();
    let query = ClusterQuery::new(0.1, 8, 4, spec)
        .unwrap()
        .with_shards(ShardCount::Fixed(1));
    let mut csgs = CSgs::new(query);
    let out = replay(spec, points, 4, &mut csgs).unwrap();
    out.into_iter()
        .flat_map(|(_, clusters)| clusters.into_iter().map(|c| c.sgs))
        .collect()
}

/// One golden row: `(i, j, best shift, distance bits, evaluated,
/// grid_level_distance bits one cell off the best shift)`.
type Row = (usize, usize, Vec<i32>, u64, usize, u64);

fn row(set: &[Sgs], i: usize, j: usize, budget: usize) -> Row {
    let (a, b) = (&set[i], &set[j]);
    let r = best_alignment(a, b, budget);
    let mut off = r.shift.clone();
    *off.last_mut().unwrap() += 1;
    let g = grid_level_distance(a, b, &off);
    // The reported distance is the grid-level distance at the reported
    // shift; both entry points share one kernel.
    assert_eq!(
        grid_level_distance(a, b, &r.shift).to_bits(),
        r.distance.to_bits(),
        "pair ({i}, {j})"
    );
    (
        i,
        j,
        r.shift,
        r.distance.to_bits(),
        r.evaluated,
        g.to_bits(),
    )
}

/// FNV-1a over every row, so the full pair sweep is pinned by one number.
fn digest(rows: &[Row]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (i, j, shift, bits, evaluated, off_bits) in rows {
        eat(*i as u64);
        eat(*j as u64);
        for s in shift {
            eat(*s as i64 as u64);
        }
        eat(*bits);
        eat(*evaluated as u64);
        eat(*off_bits);
    }
    h
}

fn all_pairs(set: &[Sgs], budget: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for i in 0..set.len() {
        for j in 0..set.len() {
            rows.push(row(set, i, j, budget));
        }
    }
    rows
}

fn check_golden(rows: &[Row], spot: &[Row], expect_digest: u64) {
    for want in spot {
        let got = rows
            .iter()
            .find(|r| r.0 == want.0 && r.1 == want.1)
            .expect("spot pair present");
        assert_eq!(got, want, "pair ({}, {})", want.0, want.1);
    }
    assert_eq!(digest(rows), expect_digest, "full pair sweep digest");
}

#[test]
fn golden_2d_refine() {
    let set = blobs_2d();
    #[rustfmt::skip]
    let spot: Vec<Row> = vec![
        (0, 1, vec![22, -16], 4604357747578936548, 64, 4604359896107729807),
        (0, 7, vec![-19, -39], 4605196903250013986, 64, 4605688120992621681),
        (1, 6, vec![-10, -12], 4604188187727831128, 64, 4605399593854974501),
        (2, 7, vec![-58, -8], 4605666921782553051, 64, 4605972562900121334),
        (4, 5, vec![25, -26], 4604364438239426463, 64, 4605670095186578501),
        (7, 20, vec![48, 42], 4604947669341016925, 64, 4605365175598104057),
        (10, 10, vec![0, 0], 0, 5, 4604586057871984132),
        (13, 21, vec![17, -9], 4604490548633133355, 64, 4604952064698843448),
        (16, 18, vec![-30, -21], 4605455820109057583, 64, 4605764128329131993),
        (21, 13, vec![-17, 9], 4604490548633133355, 64, 4604649116931701667),
        (23, 8, vec![12, -12], 4605944042975429411, 64, 4606286294384367155),
        (23, 23, vec![0, 0], 0, 5, 4604879422604013545),
    ];
    check_golden(&all_pairs(&set, 64), &spot, 0xb95a_de1c_36b6_8c34);
    // A budget that runs out part-way through an expansion.
    check_golden(&all_pairs(&set, 9), &[], 0x4074_0f38_a47d_3f2b);
}

#[test]
fn golden_4d_refine() {
    let set = stt_summaries();
    assert_eq!(set.len(), 48);
    #[rustfmt::skip]
    let spot: Vec<Row> = vec![
        (0, 0, vec![0, 0, 0, 0], 0, 9, 4605740873310007084),
        (4, 1, vec![-2, 0, 0, 15], 4606934952588970760, 64, 4606997143921504258),
        (8, 2, vec![0, 0, 0, 0], 0, 9, 4603814108958005344),
        (12, 3, vec![2, 9, 46, -43], 4605706599306082927, 64, 4606071091564559604),
        (16, 4, vec![0, -8, 42, -72], 4605323240492308049, 64, 4606222762879419695),
        (20, 5, vec![-2, 57, 47, -57], 4606177437803082813, 64, 4606489185112876967),
        (24, 6, vec![-2, -8, 42, -72], 4606203890682170323, 64, 4606249919342691172),
        (28, 7, vec![-2, 74, 52, -46], 4603579576587435263, 64, 4603919925595963126),
        (32, 8, vec![2, 57, 48, -65], 4606133718115114517, 64, 4606346712189381780),
        (36, 9, vec![0, 66, 94, -97], 4606317519024296526, 64, 4606387039235938591),
        (40, 10, vec![2, 74, 53, -60], 4606431818862122325, 64, 4606697656340126833),
        (44, 11, vec![2, 75, 53, -53], 4606195518881673874, 64, 4606871825722267719),
    ];
    check_golden(&all_pairs(&set, 64), &spot, 0x05b4_301e_8310_30b6);
    check_golden(&all_pairs(&set[..16], 9), &[], 0xb990_5d5e_3d3f_ec97);
}

/// The volume bound `|na − nb| / max(na, nb)`, computed exactly as the
/// archive computes it from cached features, never exceeds the computed
/// grid-level distance under any shift.
#[test]
fn grid_distance_never_below_volume_bound() {
    use streamsum::matching::metric::rel_diff;
    let mut set = blobs_2d();
    set.extend(stt_summaries());
    let mut rng = StdRng::seed_from_u64(0xB0D);
    let mut tight = 0usize;
    for _ in 0..1500 {
        let a = &set[rng.gen_range(0..set.len())];
        let b = &set[rng.gen_range(0..set.len())];
        if a.dim != b.dim {
            continue;
        }
        let bound = rel_diff(a.volume() as f64, b.volume() as f64);
        // Shifts near the alignment seed overlap the clusters; far ones
        // leave them disjoint.
        let best = best_alignment(a, b, 16).shift;
        let shift: Vec<i32> = best.iter().map(|s| s + rng.gen_range(-2..3)).collect();
        for s in [&shift, &best] {
            let d = grid_level_distance(a, b, s);
            assert!(d >= bound, "distance {d} below volume bound {bound}");
            tight += (d == bound) as usize;
        }
    }
    assert!(tight > 0, "bound never attained — the check is vacuous");
}

/// `match_query` on 4-d C-SGS output: each reported match carries the
/// exhaustive oracle's distance bits, and every oracle match that passes
/// the cluster-level filter is reported.
#[test]
fn match_query_4d_agrees_with_exhaustive() {
    let set = stt_summaries();
    let mut base = PatternBase::new();
    for (k, sgs) in set.iter().enumerate() {
        base.insert(sgs.clone(), WindowId(k as u64));
    }
    let mut cross_matches = 0usize;
    for ps in [false, true] {
        for (k, query) in set.iter().enumerate().step_by(2) {
            // The oracle's distances do not depend on the threshold: run it
            // once with everything admitted and cut per threshold below.
            let oracle = base.match_query_exhaustive(query, &MatchConfig::equal_weights(ps, 1.0));
            for threshold in [0.2, 0.35, 0.5] {
                let config = MatchConfig::equal_weights(ps, threshold);
                let fast = base.match_query(query, &config);
                for m in &fast.matches {
                    let o = oracle
                        .matches
                        .iter()
                        .find(|o| o.id == m.id)
                        .unwrap_or_else(|| panic!("query {k}: {:?} not in oracle", m.id));
                    assert_eq!(m.distance.to_bits(), o.distance.to_bits());
                }
                for o in oracle.matches.iter().filter(|o| o.distance <= threshold) {
                    let pattern = &base.get(o.id).unwrap().sgs;
                    if cluster_distance(pattern, query, &config) <= threshold {
                        assert!(
                            fast.matches.iter().any(|m| m.id == o.id),
                            "query {k} ps={ps} t={threshold}: missed {:?}",
                            o.id
                        );
                    }
                }
                assert!(fast.refined <= fast.candidates);
                cross_matches += fast.matches.iter().filter(|m| m.id.0 != k as u64).count();
            }
        }
    }
    assert!(
        cross_matches > 0,
        "only self-matches — the check is vacuous"
    );
}

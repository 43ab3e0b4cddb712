//! Failure injection and boundary conditions: the system must fail loudly
//! on invalid input and behave sensibly at parameter extremes.

use streamsum::prelude::*;

#[test]
fn dimension_mismatch_mid_stream_is_rejected_and_recoverable() {
    let query = ClusterQuery::new(0.5, 2, 2, WindowSpec::count(10, 5).unwrap()).unwrap();
    let mut pipeline = StreamPipeline::new(query, ArchivePolicy::All, 0).unwrap();
    pipeline.push(Point::new(vec![0.0, 0.0], 0)).unwrap();
    let err = pipeline.push(Point::new(vec![0.0], 1)).unwrap_err();
    assert!(matches!(
        err,
        Error::DimensionMismatch {
            expected: 2,
            got: 1
        }
    ));
    // The pipeline keeps working after the rejected point.
    for i in 2..30u64 {
        pipeline
            .push(Point::new(vec![(i % 3) as f64 * 0.1, 0.0], i))
            .unwrap();
    }
    assert!(pipeline.current_window().0 > 0);
}

#[test]
fn out_of_order_timestamps_rejected_for_time_windows() {
    let query = ClusterQuery::new(0.5, 2, 2, WindowSpec::time(100, 50).unwrap()).unwrap();
    let mut pipeline = StreamPipeline::new(query, ArchivePolicy::All, 0).unwrap();
    pipeline.push(Point::new(vec![0.0, 0.0], 10)).unwrap();
    let err = pipeline.push(Point::new(vec![0.0, 0.0], 5)).unwrap_err();
    assert!(matches!(
        err,
        Error::OutOfOrderTimestamp { last: 10, got: 5 }
    ));
}

#[test]
fn invalid_configurations_are_rejected_eagerly() {
    assert!(WindowSpec::count(0, 1).is_err());
    assert!(WindowSpec::count(10, 20).is_err());
    assert!(WindowSpec::count(10, 3).is_err());
    let spec = WindowSpec::count(10, 5).unwrap();
    assert!(ClusterQuery::new(-1.0, 2, 2, spec).is_err());
    assert!(ClusterQuery::new(0.5, 0, 2, spec).is_err());
    assert!(ClusterQuery::new(0.5, 2, 0, spec).is_err());
    let mut cfg = MatchConfig::equal_weights(false, 0.2);
    cfg.weights = [1.0, 1.0, 0.0, 0.0];
    assert!(cfg.validate().is_err());
}

#[test]
fn theta_c_one_makes_every_pair_a_cluster() {
    // θc = 1: any point with one neighbor is core.
    let query = ClusterQuery::new(1.0, 1, 2, WindowSpec::count(4, 4).unwrap()).unwrap();
    let mut naive = NaiveClusterer::new(query.clone());
    let mut csgs = CSgs::new(query);
    let mut pts = vec![
        Point::new(vec![0.0, 0.0], 0),
        Point::new(vec![0.5, 0.0], 1),
        Point::new(vec![10.0, 0.0], 2),
        Point::new(vec![10.5, 0.0], 3),
    ];
    // Sentinel to push the count past the window boundary so window 0
    // completes (replay does not flush partial windows).
    pts.push(Point::new(vec![99.0, 99.0], 4));
    let spec = WindowSpec::count(4, 4).unwrap();
    let a = replay(spec, pts.clone(), 2, &mut naive).unwrap();
    let b = replay(spec, pts, 2, &mut csgs).unwrap();
    assert_eq!(CanonicalClustering::from(a[0].1.clone()).len(), 2);
    assert_eq!(b[0].1.len(), 2);
    assert!(b[0].1.iter().all(|c| c.cores.len() == 2));
}

#[test]
fn coincident_points_count_as_neighbors() {
    // Many duplicates at one position: all mutual neighbors → one cluster.
    let query = ClusterQuery::new(0.1, 5, 2, WindowSpec::count(8, 8).unwrap()).unwrap();
    let mut csgs = CSgs::new(query);
    let mut pts: Vec<Point> = (0..8).map(|i| Point::new(vec![1.0, 1.0], i)).collect();
    pts.push(Point::new(vec![500.0, 500.0], 8)); // completes window 0
    let out = replay(WindowSpec::count(8, 8).unwrap(), pts, 2, &mut csgs).unwrap();
    assert_eq!(out[0].1.len(), 1);
    assert_eq!(out[0].1[0].cores.len(), 8);
    assert_eq!(out[0].1[0].sgs.volume(), 1);
}

#[test]
fn huge_theta_r_gives_one_cluster() {
    let query = ClusterQuery::new(1e6, 3, 2, WindowSpec::count(16, 16).unwrap()).unwrap();
    let mut csgs = CSgs::new(query);
    let mut pts: Vec<Point> = (0..16)
        .map(|i| {
            Point::new(
                vec![(i % 4) as f64 * 100.0, (i / 4) as f64 * 100.0],
                i as u64,
            )
        })
        .collect();
    pts.push(Point::new(vec![0.0, 0.0], 16)); // completes window 0
    let out = replay(WindowSpec::count(16, 16).unwrap(), pts, 2, &mut csgs).unwrap();
    assert_eq!(out[0].1.len(), 1);
    assert_eq!(out[0].1[0].population(), 16);
}

#[test]
fn negative_coordinates_work_end_to_end() {
    let query = ClusterQuery::new(0.5, 3, 2, WindowSpec::count(20, 10).unwrap()).unwrap();
    let mut pipeline = StreamPipeline::new(query, ArchivePolicy::All, 0).unwrap();
    for i in 0..60u64 {
        let x = -10.0 + (i % 5) as f64 * 0.1;
        let y = -20.0 + (i % 7) as f64 * 0.1;
        pipeline.push(Point::new(vec![x, y], i)).unwrap();
    }
    assert!(!pipeline.base().is_empty());
    let recent = &pipeline.last_output()[0].sgs;
    assert!(recent.cells.iter().all(|c| c.coord.iter().all(|&v| v < 0)));
    let outcome = pipeline
        .base()
        .match_query(recent, &MatchConfig::equal_weights(true, 0.2));
    assert!(!outcome.matches.is_empty());
}

#[test]
fn window_larger_than_stream_emits_nothing() {
    let query = ClusterQuery::new(0.5, 2, 2, WindowSpec::count(1000, 100).unwrap()).unwrap();
    let mut pipeline = StreamPipeline::new(query, ArchivePolicy::All, 0).unwrap();
    let outs = pipeline
        .extend((0..50).map(|i| Point::new(vec![i as f64, 0.0], i)))
        .unwrap();
    assert!(outs.is_empty());
    assert_eq!(pipeline.base().len(), 0);
}

#[test]
fn matching_empty_archive_finds_nothing() {
    use streamsum::core::GridGeometry;
    let base = PatternBase::new();
    let cores: Vec<Box<[f64]>> = (0..10).map(|i| vec![i as f64 * 0.3, 0.0].into()).collect();
    let sgs = Sgs::from_members(&MemberSet::new(cores, vec![]), &GridGeometry::basic(2, 1.0));
    let out = base.match_query(&sgs, &MatchConfig::equal_weights(false, 0.5));
    assert!(out.matches.is_empty());
    assert_eq!(out.candidates, 0);
}

#[test]
fn three_dimensional_streams_work() {
    // d = 3: reach = ⌈√3⌉ = 2, adjacency 26 — exercises the generic paths.
    let query = ClusterQuery::new(0.5, 4, 3, WindowSpec::count(60, 30).unwrap()).unwrap();
    let mut naive = NaiveClusterer::new(query.clone());
    let mut csgs = CSgs::new(query);
    let pts: Vec<Point> = (0..180)
        .map(|i| {
            Point::new(
                vec![
                    (i % 4) as f64 * 0.15,
                    (i % 5) as f64 * 0.15,
                    (i % 3) as f64 * 0.15,
                ],
                i as u64,
            )
        })
        .collect();
    let spec = WindowSpec::count(60, 30).unwrap();
    let a = replay(spec, pts.clone(), 3, &mut naive).unwrap();
    let b = replay(spec, pts, 3, &mut csgs).unwrap();
    for ((_, na), (_, cs)) in a.iter().zip(b.iter()) {
        let ca = CanonicalClustering::from(na.clone());
        let cb = CanonicalClustering::from(
            cs.iter()
                .map(|c| streamsum::cluster::FullCluster {
                    cores: c.cores.clone(),
                    edges: c.edges.clone(),
                })
                .collect(),
        );
        assert_eq!(ca, cb);
    }
}

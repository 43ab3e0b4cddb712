//! Output checks: pushed windows against an in-process C-SGS reference,
//! and MATCH replies against the exhaustive matcher.

use std::time::Instant;

use sgs_archive::{MatchOutcome, PatternBase};
use sgs_core::{ClusterQuery, Point, ShardCount, WindowId, WindowSpec};
use sgs_csgs::{CSgs, WindowOutput};
use sgs_matching::MatchConfig;
use sgs_stream::WindowEngine;
use sgs_summarize::Sgs;
use sgs_wire::{Frame, WireWindow};

use crate::e2e::{Reply, MATCH_THRESHOLD, SLIDE, WIN};
use crate::stats::Samples;

/// FNV-1a over the wire encoding of one window: a byte-exact digest of
/// its window id, members and full summaries.
pub fn window_digest(window: WindowId, clusters: &WindowOutput) -> u64 {
    let frame = Frame::Windows {
        query: 0,
        windows: vec![WireWindow {
            window,
            clusters: clusters.clone(),
        }],
    };
    fnv1a(&frame.encode())
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

pub fn digests(windows: &[(WindowId, WindowOutput)]) -> Vec<u64> {
    windows.iter().map(|(w, c)| window_digest(*w, c)).collect()
}

/// The in-process reference: `WindowEngine::push_batch` over a
/// single-shard `CSgs`, one slide per call.
pub struct Reference {
    pub windows: Vec<(WindowId, WindowOutput)>,
    /// Wall time of each slide-sized `push_batch` call.
    pub slide_ms: Samples,
    pub meta_bytes_peak: usize,
    pub elapsed_s: f64,
}

pub fn cluster_query(theta_r: f64, theta_c: u32, dim: usize) -> ClusterQuery {
    let spec = WindowSpec::count(WIN, SLIDE).expect("valid window");
    ClusterQuery::new(theta_r, theta_c, dim, spec)
        .expect("valid query")
        .with_shards(ShardCount::Fixed(1))
}

pub fn reference(query: &ClusterQuery, points: &[Point]) -> Reference {
    let mut engine = WindowEngine::new(query.window, query.dim);
    let mut csgs = CSgs::with_pool(query.clone(), sgs_exec::Pool::new(1));
    let mut windows = Vec::new();
    let mut slide_ms = Samples::new();
    let mut meta_bytes_peak = 0usize;
    let start = Instant::now();
    for chunk in points.chunks(SLIDE as usize) {
        let t = Instant::now();
        engine
            .push_batch(chunk.iter().cloned(), &mut csgs, &mut windows)
            .expect("generated points fit the query");
        slide_ms.push(t.elapsed().as_secs_f64() * 1e3);
        meta_bytes_peak = meta_bytes_peak.max(csgs.meta_bytes());
    }
    Reference {
        windows,
        slide_ms,
        meta_bytes_peak,
        elapsed_s: start.elapsed().as_secs_f64(),
    }
}

/// Every cluster's summary, in the order the server archived them.
pub fn summaries(windows: &[(WindowId, WindowOutput)]) -> Vec<(Sgs, WindowId)> {
    windows
        .iter()
        .flat_map(|(w, clusters)| clusters.iter().map(move |c| (c.sgs.clone(), *w)))
        .collect()
}

/// A base holding what the server's memory-only history holds: every
/// summary, inserted in window and extraction order.
pub fn rebuild_base(summaries: &[(Sgs, WindowId)]) -> PatternBase {
    let mut base = PatternBase::new();
    for (sgs, w) in summaries {
        base.insert(sgs.clone(), *w);
    }
    base
}

pub fn match_config() -> MatchConfig {
    MatchConfig::equal_weights(false, MATCH_THRESHOLD)
}

/// The exhaustive matcher's answer for every query, two threads wide.
pub fn exhaustive(base: &PatternBase, queries: &[Sgs]) -> Vec<MatchOutcome> {
    let config = match_config();
    let half = queries.len().div_ceil(2);
    std::thread::scope(|scope| {
        let other = scope.spawn(|| {
            queries[half..]
                .iter()
                .map(|q| base.match_query_exhaustive(q, &config))
                .collect::<Vec<_>>()
        });
        let mut out: Vec<MatchOutcome> = queries[..half]
            .iter()
            .map(|q| base.match_query_exhaustive(q, &config))
            .collect();
        out.extend(other.join().expect("exhaustive matcher thread"));
        out
    })
}

/// Whether a reply's matches are exactly the exhaustive matcher's: same
/// patterns, same distances, same order.
pub fn reply_equals(reply: &Reply, oracle: &MatchOutcome) -> bool {
    reply.matches.len() == oracle.matches.len()
        && reply
            .matches
            .iter()
            .zip(&oracle.matches)
            .all(|(r, o)| r.pattern == o.id.0 && r.distance.to_bits() == o.distance.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_separates_windows() {
        let empty: WindowOutput = Vec::new();
        assert_eq!(
            window_digest(WindowId(3), &empty),
            window_digest(WindowId(3), &empty)
        );
        assert_ne!(
            window_digest(WindowId(3), &empty),
            window_digest(WindowId(4), &empty)
        );
    }
}

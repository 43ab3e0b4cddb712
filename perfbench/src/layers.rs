//! Per-layer numbers for the traced run. Each layer is a workspace crate;
//! its numbers come from timing calls into its public functions from
//! here, on the traced pass's own inputs and outputs, and from the
//! server's `sgs-obs` registry scraped at the end of that pass.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use sgs_archive::{DurableConfig, DurablePatternBase, PatternBase};
use sgs_core::PoolThreads;
use sgs_matching::{best_alignment, cluster_distance, feature_ranges};
use sgs_runtime::{QueryPlan, Runtime, RuntimeConfig};
use sgs_summarize::{packed, MemberSet, Sgs};
use sgs_wire::{Frame, WireWindow};

use crate::check::{self, Reference};
use crate::e2e::{self, CHUNK};
use crate::server::POOL_THREADS;
use crate::stats::{check_p95_count, median, Samples};
use crate::trace::Tracer;
use crate::workload::{Args, Measured, Rows};

/// MATCH queries replayed against the replica base (enough for a p95).
const REPLAY_QUERIES: usize = 200;
/// Queries whose match is split into filter, coarse and refine.
const BREAKDOWN_QUERIES: usize = 20;
/// Summaries replayed into a durable base (one fsync each).
const DURABLE_INSERTS: usize = 200;
const PARSE_REPS: usize = 1_000;

struct Out(Rows);

impl Out {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }
}

/// Replay every layer; returns the per-layer rows and whether the
/// replays' own consistency checks held.
pub fn replay(
    args: &Args,
    m: &Measured,
    reference: &Reference,
    tracer: &mut Tracer,
) -> Result<(Rows, bool), String> {
    let ds = m.workload.dataset();
    let scrape = m
        .scrape
        .as_ref()
        .ok_or("traced run without a registry scrape")?;
    let pushed = m.pushed();
    let windows = &pushed.windows;
    let fed = &m.points;
    let mut out = Out(Vec::new());
    let mut ok = true;

    // sgs-client, timed around each call in the measured pass.
    out.put("client.feed_call_ms_p50", pushed.feed_call_ms.p50()?, "ms");
    out.put("client.feed_call_ms_p95", pushed.feed_call_ms.p95()?, "ms");
    out.put("client.send_lag_ms_p95", pushed.send_lag_ms.p95()?, "ms");
    out.put("client.bind_ms_p50", m.bind_ms.p50()?, "ms");
    out.put("client.submit_ms_p50", m.submit_ms.p50()?, "ms");

    // sgs-wire: the run's Feed frames encoded, its Windows frames decoded.
    let feeds: Vec<Frame> = fed
        .chunks(CHUNK)
        .map(|c| Frame::Feed {
            stream: ds.stream.into(),
            points: c.to_vec(),
        })
        .collect();
    let root = tracer.begin("replay.wire", 0);
    let span = tracer.begin("wire.encode_feed", 0);
    let t = Instant::now();
    for f in &feeds {
        black_box(f.encode());
    }
    let encode_s = t.elapsed().as_secs_f64();
    tracer.end(span);
    out.put(
        "wire.feed_encode_us_per_chunk",
        encode_s * 1e6 / feeds.len() as f64,
        "us",
    );
    let mut encoded: Vec<Vec<u8>> = Vec::new();
    let mut at = 0usize;
    for &size in &pushed.batches {
        let batch = &windows[at..at + size];
        at += size;
        let frame = Frame::Windows {
            query: 1,
            windows: batch
                .iter()
                .map(|(w, c)| WireWindow {
                    window: *w,
                    clusters: c.clone(),
                })
                .collect(),
        };
        encoded.push(frame.encode());
    }
    let span = tracer.begin("wire.decode_windows", 0);
    let t = Instant::now();
    for bytes in &encoded {
        let decoded = sgs_wire::decode(bytes).map_err(|e| format!("decode: {e:?}"))?;
        black_box(decoded);
    }
    let decode_s = t.elapsed().as_secs_f64();
    tracer.end(span);
    tracer.end(root);
    let n_windows = windows.len().max(1) as f64;
    out.put(
        "wire.windows_decode_us_per_window",
        decode_s * 1e6 / n_windows,
        "us",
    );
    let wire_bytes: usize = encoded.iter().map(Vec::len).sum();
    out.put(
        "wire.bytes_per_window",
        wire_bytes as f64 / n_windows,
        "bytes",
    );

    // sgs-server, from its registry.
    let (blocks, p50, p95) = scrape.histogram("sgs_server_feed_block_nanos");
    check_p95_count(blocks)?;
    out.put("server.feed_block_ms_p50", p50 as f64 / 1e6, "ms");
    out.put("server.feed_block_ms_p95", p95 as f64 / 1e6, "ms");
    let pushed_total = scrape.counter("sgs_server_pushed_windows_total").max(1) as f64;
    out.put(
        "server.bytes_out_per_window",
        scrape.counter("sgs_server_bytes_out_total") as f64 / pushed_total,
        "bytes",
    );
    let frames = scrape.counter_family("sgs_server_frames_total").max(1) as f64;
    out.put(
        "server.reactor_wakeups_per_frame",
        scrape.counter("sgs_server_reactor_wakeups_total") as f64 / frames,
        "ratio",
    );

    // sgs-runtime: registry, then the same stream through an in-process
    // runtime with a callback sink.
    let (emits, p50, p95) = scrape.histogram("sgs_runtime_ingest_to_emit_nanos");
    check_p95_count(emits)?;
    out.put("runtime.ingest_to_emit_ms_p50", p50 as f64 / 1e6, "ms");
    out.put("runtime.ingest_to_emit_ms_p95", p95 as f64 / 1e6, "ms");
    out.put(
        "runtime.batch_ms_p50",
        scrape.histogram("sgs_runtime_batch_nanos").1 as f64 / 1e6,
        "ms",
    );
    let scratch = args.out_dir.join(format!("replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let rate = runtime_rate(m, tracer)?;
    out.put("runtime.inproc_tuples_per_s", rate, "1/s");

    // sgs-exec, from the registry.
    let emitted = scrape.counter("sgs_runtime_windows_emitted_total").max(1) as f64;
    let (tasks, _, p95) = scrape.histogram("sgs_exec_task_nanos{priority=\"normal\"}");
    check_p95_count(tasks)?;
    out.put("exec.task_ms_p95", p95 as f64 / 1e6, "ms");
    out.put(
        "exec.steals_per_window",
        scrape.counter("sgs_exec_steals_total") as f64 / emitted,
        "count",
    );
    out.put(
        "exec.parks_per_window",
        scrape.counter("sgs_exec_parks_total") as f64 / emitted,
        "count",
    );

    // sgs-stream + sgs-csgs: the single-shard reference, one slide a call.
    out.put("csgs.window_ms_p50", reference.slide_ms.p50()?, "ms");
    out.put("csgs.window_ms_p95", reference.slide_ms.p95()?, "ms");
    out.put(
        "csgs.inproc_tuples_per_s",
        m.points.len() as f64 / reference.elapsed_s,
        "1/s",
    );
    let clusters: usize = reference.windows.iter().map(|(_, c)| c.len()).sum();
    out.put(
        "csgs.clusters_per_window",
        clusters as f64 / reference.windows.len().max(1) as f64,
        "count",
    );
    out.put(
        "csgs.meta_bytes_peak",
        reference.meta_bytes_peak as f64,
        "bytes",
    );

    // sgs-summarize: what each pushed cluster's summary costs to keep.
    let (mut cells, mut archived, mut full) = (0usize, 0usize, 0usize);
    let coords = |ids: &[sgs_core::PointId]| -> Vec<Box<[f64]>> {
        ids.iter()
            .map(|id| fed[id.0 as usize].coords.clone())
            .collect()
    };
    for (_, cs) in windows {
        for c in cs {
            cells += c.sgs.volume();
            archived += packed::archived_bytes(&c.sgs);
            full += MemberSet::new(coords(&c.cores), coords(&c.edges)).full_repr_bytes();
        }
    }
    let patterns = clusters.max(1) as f64;
    out.put(
        "summarize.cells_per_pattern",
        cells as f64 / patterns,
        "count",
    );
    out.put(
        "summarize.archived_bytes_per_pattern",
        archived as f64 / patterns,
        "bytes",
    );
    out.put(
        "summarize.compression_ratio",
        archived as f64 / full.max(1) as f64,
        "ratio",
    );

    // sgs-archive: the run's summaries inserted into a replica base, then
    // a prefix of them into a durable base.
    let summaries = check::summaries(windows);
    let root = tracer.begin("replay.archive", 0);
    let mut base = PatternBase::new();
    let mut insert_us = Samples::new();
    for (i, (sgs, w)) in summaries.iter().enumerate() {
        let sgs = sgs.clone();
        let span = tracer.begin("archive.insert", i as u64);
        let t = Instant::now();
        base.insert(sgs, *w);
        insert_us.push(t.elapsed().as_secs_f64() * 1e6);
        tracer.end(span);
    }
    tracer.end(root);
    out.put("archive.insert_us_p50", insert_us.p50()?, "us");
    let (durable_ms, checkpoint_ms) = durable_replay(&summaries, &scratch, tracer)?;
    let _ = std::fs::remove_dir_all(&scratch);
    out.put("archive.durable_insert_ms_p50", durable_ms.p50()?, "ms");
    out.put("archive.durable_insert_ms_p95", durable_ms.p95()?, "ms");
    out.put("archive.checkpoint_ms", checkpoint_ms, "ms");
    // The server's own WAL timings where it kept a WAL, else the replay's.
    for (metric, histogram) in [
        ("archive.wal_fsync_ms_p50", "sgs_archive_wal_fsync_nanos"),
        ("archive.wal_append_ms_p50", "sgs_archive_wal_append_nanos"),
    ] {
        let (count, p50, _) = scrape.histogram(histogram);
        let p50 = if count > 0 {
            p50
        } else {
            sgs_obs::registry().histogram(histogram).snapshot().p50
        };
        out.put(metric, p50 as f64 / 1e6, "ms");
    }

    // sgs-archive + sgs-matching: MATCH on the replica base, and the
    // filter/coarse/refine split rebuilt from public functions.
    // Spread over the volume-ordered query clusters, repeating them when
    // there are fewer than REPLAY_QUERIES.
    let queries: Vec<&Sgs> = (0..REPLAY_QUERIES)
        .map(|i| &m.queries[i * m.queries.len() / REPLAY_QUERIES])
        .collect();
    let config = check::match_config();
    let root = tracer.begin("replay.match", 0);
    let mut match_ms = Samples::new();
    let mut candidates = Samples::new();
    let mut outcomes = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        let span = tracer.begin("archive.match_query", i as u64);
        let t = Instant::now();
        let outcome = base.match_query(q, &config);
        match_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tracer.end(span);
        candidates.push(outcome.candidates as f64 / base.len().max(1) as f64);
        outcomes.push(outcome);
    }
    out.put("archive.match_query_ms_p50", match_ms.p50()?, "ms");
    out.put("archive.match_query_ms_p95", match_ms.p95()?, "ms");

    let (mut coarse_ms, mut refine_ms, mut filter_ms) =
        (Samples::new(), Samples::new(), Samples::new());
    let mut align_us = Samples::new();
    let (mut n_cand, mut n_refined, mut n_matches) = (0usize, 0usize, 0usize);
    for i in (0..BREAKDOWN_QUERIES).map(|k| k * REPLAY_QUERIES / BREAKDOWN_QUERIES) {
        let q = queries[i];
        let outcome = &outcomes[i];
        let ranges = feature_ranges(&q.features(), &config.weights, config.threshold);
        let cands: Vec<&Sgs> = base
            .iter()
            .filter(|p| {
                p.features
                    .iter()
                    .zip(ranges.iter())
                    .all(|(f, (lo, hi))| lo <= f && (f <= hi || hi.is_infinite()))
            })
            .map(|p| &p.sgs)
            .collect();
        let span = tracer.begin("matching.coarse", i as u64);
        let t = Instant::now();
        let survivors: Vec<&Sgs> = cands
            .iter()
            .copied()
            .filter(|p| cluster_distance(p, q, &config) <= config.threshold)
            .collect();
        let coarse = t.elapsed().as_secs_f64() * 1e3;
        tracer.end(span);
        let span = tracer.begin("matching.refine", i as u64);
        let mut matches = 0usize;
        let mut refine = 0.0;
        for p in &survivors {
            let t = Instant::now();
            let r = best_alignment(q, p, config.alignment_budget);
            let us = t.elapsed().as_secs_f64() * 1e6;
            refine += us / 1e3;
            align_us.push(us);
            matches += (r.distance <= config.threshold) as usize;
        }
        tracer.end(span);
        if cands.len() != outcome.candidates
            || survivors.len() != outcome.refined
            || matches != outcome.matches.len()
        {
            eprintln!(
                "perfbench: rebuilt filter disagrees with match_query on query {i}: \
                 {}/{}/{} vs {}/{}/{}",
                cands.len(),
                survivors.len(),
                matches,
                outcome.candidates,
                outcome.refined,
                outcome.matches.len()
            );
            ok = false;
        }
        coarse_ms.push(coarse);
        refine_ms.push(refine);
        filter_ms.push((match_ms.values()[i] - coarse - refine).max(0.0));
        n_cand += cands.len();
        n_refined += survivors.len();
        n_matches += matches;
    }
    tracer.end(root);
    out.put("archive.filter_ms_p50", filter_ms.p50()?, "ms");
    out.put("archive.candidate_ratio", candidates.mean(), "ratio");
    out.put("matching.coarse_ms_per_query", coarse_ms.mean(), "ms");
    out.put("matching.refine_ms_per_query", refine_ms.mean(), "ms");
    out.put(
        "matching.best_alignment_us_p50",
        align_us.p50().unwrap_or(0.0),
        "us",
    );
    out.put(
        "matching.refine_ratio",
        n_refined as f64 / n_cand.max(1) as f64,
        "ratio",
    );
    out.put(
        "matching.match_ratio",
        n_matches as f64 / n_refined.max(1) as f64,
        "ratio",
    );

    // sgs-query and sgs-datagen.
    let statement = e2e::match_statement("Cq0");
    let mut parse_us = Samples::new();
    let span = tracer.begin("query.parse_any", 0);
    for _ in 0..PARSE_REPS {
        let t = Instant::now();
        let ast =
            sgs_query::parse_any(black_box(&statement)).map_err(|e| format!("parse: {e:?}"))?;
        parse_us.push(t.elapsed().as_secs_f64() * 1e6);
        black_box(ast);
    }
    tracer.end(span);
    out.put("query.parse_us_p50", parse_us.p50()?, "us");
    out.put("datagen.generate_s", median(m.generate_s.values()), "s");

    Ok((out.0, ok))
}

/// `Runtime::push_stream` plus `quiesce` over the fed stream, with a
/// callback sink.
fn runtime_rate(m: &Measured, tracer: &mut Tracer) -> Result<f64, String> {
    let ds = m.workload.dataset();
    let mut rt = Runtime::with_config(RuntimeConfig {
        pool_threads: PoolThreads::Fixed(POOL_THREADS),
        ..RuntimeConfig::default()
    });
    rt.register_stream(ds.stream, ds.dim);
    let text = e2e::detect_statement(ds.stream, ds.theta_r, ds.theta_c);
    let Ok(QueryPlan::Detect(plan)) = rt.plan(&text) else {
        return Err("DETECT did not plan".into());
    };
    rt.submit_detect_with(*plan, |_, _| {})
        .map_err(|e| format!("runtime submit: {e}"))?;
    let span = tracer.begin("runtime.push_stream", 0);
    let t = Instant::now();
    rt.push_stream(ds.stream, &m.points)
        .map_err(|e| format!("push_stream: {e}"))?;
    rt.quiesce().map_err(|e| format!("quiesce: {e}"))?;
    let secs = t.elapsed().as_secs_f64();
    tracer.end(span);
    rt.shutdown();
    Ok(m.points.len() as f64 / secs)
}

/// `DurablePatternBase::insert` of the first summaries into a fresh
/// directory, then one checkpoint. Metrics are switched on first so the
/// WAL's own histograms record the replay.
fn durable_replay(
    summaries: &[(Sgs, sgs_core::WindowId)],
    scratch: &Path,
    tracer: &mut Tracer,
) -> Result<(Samples, f64), String> {
    sgs_obs::enable();
    let dir = scratch.join("durable");
    let mut base = DurablePatternBase::open(&dir, DurableConfig::default())
        .map_err(|e| format!("open durable base: {e}"))?;
    let root = tracer.begin("replay.durable", 0);
    let mut insert_ms = Samples::new();
    for (i, (sgs, w)) in summaries.iter().take(DURABLE_INSERTS).enumerate() {
        let sgs = sgs.clone();
        let span = tracer.begin("archive.durable_insert", i as u64);
        let t = Instant::now();
        base.try_insert(sgs, *w)
            .map_err(|e| format!("durable insert: {e}"))?;
        insert_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tracer.end(span);
    }
    let span = tracer.begin("archive.checkpoint", 0);
    let t = Instant::now();
    base.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
    let checkpoint_ms = t.elapsed().as_secs_f64() * 1e3;
    tracer.end(span);
    tracer.end(root);
    Ok((insert_ms, checkpoint_ms))
}

//! The four workloads: set-up, the measured phase, the output checks and
//! the result object.
//!
//! Why each workload exists, and what sizing them taught, is in
//! `NOTES.md` beside this package.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use sgs_client::Session;
use sgs_core::Point;
use sgs_datagen::{generate_gmti, generate_stt, GmtiConfig, SttConfig};
use sgs_summarize::Sgs;

use crate::check::{self, Reference};
use crate::e2e::{self, MatchOutcome, Pace, PushOutcome};
use crate::layers;
use crate::server::{Scrape, Server, ServerSpec};
use crate::stats::{median, Samples};
use crate::trace::{self, Tracer};

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub server_bin: PathBuf,
    pub out_dir: PathBuf,
    pub meta: String,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SttIngest,
    GmtiPush,
    SttMatch,
}

/// Windows a closed loop keeps outstanding.
const CREDIT: u64 = 2;
/// The open loop's offered rate: about 45% of the server's closed-loop
/// GMTI capacity on the 2-core machine it was sized on.
const GMTI_RATE: u64 = 40_000;
/// STT tuples fed: 200 windows, the fewest a window p95 may come from.
const STT_TUPLES: usize = 210_000;
/// MATCH query clusters come from one piece of this many tuples per
/// segment, a later, disjoint stretch of that segment's seeded stream:
/// long enough for two windows. Taking pieces from all eight segments,
/// not four, halved the spread in CPU per statement across seeds.
const QUERY_PIECE: usize = 12_000;
/// Most distinct clusters bound for the MATCH phase: in practice every
/// one the query pieces hold (about 80–100). Statements cycle over them,
/// so each reply can be checked against one exhaustive answer. Fewer (40)
/// left a 0.23 spread in CPU per statement across seeds.
const MATCH_DISTINCT: usize = 100;
const MIN_MATCH_STATEMENTS: u64 = 300;
/// MATCH statements a traced push workload issues to time bind/submit.
const PROBE_QUERIES: usize = 8;

#[derive(Clone, Copy, Debug)]
pub struct Dataset {
    pub stream: &'static str,
    pub dim: usize,
    pub theta_r: f64,
    pub theta_c: u32,
}

/// Paper case 2 on each stream (θc 8; θr scaled to the stream's range).
const STT: Dataset = Dataset {
    stream: "stt",
    dim: 4,
    theta_r: 0.1,
    theta_c: 8,
};
const GMTI: Dataset = Dataset {
    stream: "gmti",
    dim: 2,
    theta_r: 0.5,
    theta_c: 8,
};

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "stt-ingest" => Workload::SttIngest,
            "gmti-push" => Workload::GmtiPush,
            "stt-match" => Workload::SttMatch,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SttIngest => "stt-ingest",
            Workload::GmtiPush => "gmti-push",
            Workload::SttMatch => "stt-match",
        }
    }

    pub fn dataset(self) -> Dataset {
        match self {
            Workload::GmtiPush => GMTI,
            _ => STT,
        }
    }

    /// Tuples fed to the server: `--seconds` of the open loop's schedule,
    /// or the closed loops' fixed stream.
    pub fn stream_len(self, seconds: u64) -> usize {
        match self {
            Workload::GmtiPush => (GMTI_RATE * seconds) as usize,
            _ => STT_TUPLES,
        }
    }

    /// Set-ups per untraced run; `setup_s` is their median. stt-match's
    /// set-up builds a whole history, so it repeats fewer times.
    fn setup_reps(self) -> usize {
        match self {
            Workload::SttMatch => 2,
            _ => 5,
        }
    }

    fn pace(self) -> Pace {
        match self {
            Workload::GmtiPush => Pace::Open { rate: GMTI_RATE },
            _ => Pace::Closed { credit: CREDIT },
        }
    }
}

/// Stream segments, each from its own seed derived from the run's seed.
/// One seed's data fixes where the dense groups are and how many there
/// are; mixing eight keeps one unusual seed from moving a run's numbers.
const SEGMENTS: usize = 8;

/// The workload's `n` tuples, and the query pieces. Segment `i` is the
/// `i`-th eighth of a stream generated from sub-seed `i`, so every
/// segment keeps the generator's per-tuple dynamics. A query piece is the
/// stretch of a segment's stream that follows the segment.
pub fn generate(ds: Dataset, n: usize, seed: u64) -> (Vec<Point>, Vec<Vec<Point>>) {
    let seg = n / SEGMENTS;
    let total = n + QUERY_PIECE;
    let mut fed = Vec::with_capacity(n);
    let mut pieces = Vec::new();
    for i in 0..SEGMENTS {
        let sub_seed = splitmix64(seed ^ splitmix64(i as u64 + 1));
        let stream = if ds.stream == "gmti" {
            generate_gmti(&GmtiConfig {
                n_records: total,
                seed: sub_seed,
                ..GmtiConfig::default()
            })
        } else {
            generate_stt(&SttConfig {
                n_records: total,
                seed: sub_seed,
                ..SttConfig::default()
            })
        };
        let end = if i + 1 == SEGMENTS { n } else { (i + 1) * seg };
        fed.extend_from_slice(&stream[i * seg..end]);
        pieces.push(stream[end..end + QUERY_PIECE].to_vec());
    }
    for (i, p) in fed.iter_mut().enumerate() {
        p.ts = i as u64;
    }
    (fed, pieces)
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Query clusters: every distinct non-empty cluster the in-process
/// extractor finds in the query pieces, each piece its own stream,
/// ordered by volume. A MATCH costs more the larger its cluster, so an
/// even spread over this order gives every run the same mix of sizes.
pub fn query_clusters(ds: Dataset, pieces: &[Vec<Point>]) -> Vec<Sgs> {
    let query = check::cluster_query(ds.theta_r, ds.theta_c, ds.dim);
    let mut kept: Vec<Sgs> = Vec::new();
    for piece in pieces {
        for (_, clusters) in check::reference(&query, piece).windows {
            for sgs in clusters.into_iter().map(|c| c.sgs) {
                // A cluster that persists across windows repeats verbatim.
                if sgs.mbr().is_some() && !kept.contains(&sgs) {
                    kept.push(sgs);
                }
            }
        }
    }
    kept.sort_by_key(Sgs::volume);
    kept
}

/// `count` items spread evenly over `all`.
fn spread<T: Clone>(all: &[T], count: usize) -> Vec<T> {
    let count = count.min(all.len());
    (0..count)
        .map(|i| all[i * all.len() / count].clone())
        .collect()
}

/// A server set up for the measured phase.
struct Live {
    server: Server,
    session: Session,
    query: u64,
    points: Vec<Point>,
    /// stt-match: the history build and the bound query clusters.
    history: Option<PushOutcome>,
    bound: Vec<Sgs>,
    bind_ms: Samples,
    generate_s: f64,
}

fn set_up(
    args: &Args,
    metrics: bool,
    queries: &[Sgs],
    tracer: &mut Tracer,
) -> Result<Live, String> {
    let w = args.workload;
    let ds = w.dataset();
    let n = w.stream_len(args.seconds);
    let t = Instant::now();
    let (points, _) = generate(ds, n, args.seed);
    let generate_s = t.elapsed().as_secs_f64();
    let server = Server::start(&ServerSpec {
        binary: args.server_bin.clone(),
        metrics,
    })?;
    let mut session = server.connect()?;
    let query = session
        .detect(&e2e::detect_statement(ds.stream, ds.theta_r, ds.theta_c))
        .map_err(|e| format!("DETECT: {e}"))?;
    // One subscribed query per session: `wait_windows` on a session with
    // two subscriptions can block past its timeout.
    drop(
        session
            .subscribe(query)
            .map_err(|e| format!("subscribe: {e}"))?,
    );
    let mut live = Live {
        server,
        session,
        query,
        points,
        history: None,
        bound: Vec::new(),
        bind_ms: Samples::new(),
        generate_s,
    };
    if w == Workload::SttMatch {
        build_history(&mut live, queries, tracer)?;
    }
    Ok(live)
}

/// stt-match set-up: archive the stream, retire the query, bind the
/// query clusters.
fn build_history(live: &mut Live, queries: &[Sgs], tracer: &mut Tracer) -> Result<(), String> {
    let ds = STT;
    let history = e2e::push_phase(
        &mut live.session,
        live.query,
        ds.stream,
        &live.points,
        Workload::SttMatch.pace(),
        tracer,
    );
    if history.failed > 0 {
        return Err(format!("history build lost {} operations", history.failed));
    }
    live.session
        .quiesce()
        .map_err(|e| format!("quiesce: {e}"))?;
    drop(
        live.session
            .subscribe(live.query)
            .and_then(|sub| sub.unsubscribe())
            .map_err(|e| format!("unsubscribe: {e}"))?,
    );
    live.session
        .query(live.query)
        .cancel()
        .map_err(|e| format!("cancel: {e}"))?;
    live.history = Some(history);
    live.bound = spread(queries, MATCH_DISTINCT);
    let root = tracer.begin("run.bind", 0);
    for (i, sgs) in live.bound.iter().enumerate() {
        let span = tracer.begin("client.bind", i as u64);
        let t = Instant::now();
        live.session
            .bind(&format!("Cq{i}"), sgs)
            .map_err(|e| format!("bind: {e}"))?;
        live.bind_ms.push(e2e::ms(t.elapsed()));
        tracer.end(span);
    }
    tracer.end(root);
    Ok(())
}

/// One measured run of a workload, its outputs still to be checked.
pub struct Measured {
    pub workload: Workload,
    pub points: Vec<Point>,
    pub setup_s: Samples,
    pub generate_s: Samples,
    pub push: Option<PushOutcome>,
    pub history: Option<PushOutcome>,
    pub matched: Option<MatchOutcome>,
    pub bound: Vec<Sgs>,
    /// Every distinct query cluster of the run's query pieces.
    pub queries: Vec<Sgs>,
    pub bind_ms: Samples,
    pub submit_ms: Samples,
    pub peak_rss_mb: f64,
    /// Server CPU time over the measured phase.
    pub server_cpu_s: f64,
    pub scrape: Option<Scrape>,
    pub tracer: Tracer,
}

impl Measured {
    /// The stream's windows as pushed: the measured phase's, or the
    /// history build's for stt-match.
    pub fn pushed(&self) -> &PushOutcome {
        self.push
            .as_ref()
            .or(self.history.as_ref())
            .expect("every workload pushes windows")
    }
}

fn measure(args: &Args, traced: bool, reps: usize) -> Result<Measured, String> {
    // Query clusters are extracted in process, outside the set-up time.
    let ds = args.workload.dataset();
    let (_, pieces) = generate(ds, args.workload.stream_len(args.seconds), args.seed);
    let queries = query_clusters(ds, &pieces);
    if queries.is_empty() {
        return Err("the query pieces yielded no cluster".into());
    }
    let origin = Instant::now();
    let mut tracer = Tracer::new(traced, origin);
    let mut setup_s = Samples::new();
    let mut generate_s = Samples::new();
    let mut live = None;
    for _ in 0..reps {
        // Only the last set-up's spans are kept.
        tracer = Tracer::new(traced, origin);
        let t = Instant::now();
        let fresh = set_up(args, traced, &queries, &mut tracer)?;
        setup_s.push(t.elapsed().as_secs_f64());
        generate_s.push(fresh.generate_s);
        if let Some(old) = live.replace(fresh) {
            old.server.stop();
        }
    }
    let mut live = live.expect("at least one set-up");

    let cpu_before = live.server.cpu_s()?;
    let (mut push, mut matched) = (None, None);
    if args.workload == Workload::SttMatch {
        let mut second = live.server.connect()?;
        let names: Vec<String> = (0..live.bound.len()).map(|i| format!("Cq{i}")).collect();
        let mut tracers = [Tracer::new(traced, origin), Tracer::new(traced, origin)];
        matched = Some(e2e::match_phase(
            [&mut live.session, &mut second],
            &names,
            MIN_MATCH_STATEMENTS,
            Duration::from_secs(args.seconds),
            &mut tracers,
        ));
        for t in tracers {
            tracer.absorb(t);
        }
    } else {
        push = Some(e2e::push_phase(
            &mut live.session,
            live.query,
            ds.stream,
            &live.points,
            args.workload.pace(),
            &mut tracer,
        ));
    }
    let peak_rss_mb = live.server.peak_rss_mb()?;
    let server_cpu_s = live.server.cpu_s()? - cpu_before;

    let mut submit_ms = Samples::new();
    let mut bind_ms = std::mem::take(&mut live.bind_ms);
    let mut scrape = None;
    if traced {
        if let Some(m) = &matched {
            submit_ms = Samples::from_vec(m.issued.iter().map(|i| i.latency_ms).collect());
        } else {
            // Push workloads issue no MATCH: time a few binds and
            // submits against the history they built.
            let probes = spread(&queries, PROBE_QUERIES);
            let root = tracer.begin("run.probe", 0);
            for (i, sgs) in probes.iter().enumerate() {
                let name = format!("Cprobe{i}");
                let span = tracer.begin("client.bind", i as u64);
                let t = Instant::now();
                live.session
                    .bind(&name, sgs)
                    .map_err(|e| format!("bind: {e}"))?;
                bind_ms.push(e2e::ms(t.elapsed()));
                tracer.end(span);
                let span = tracer.begin("client.submit", i as u64);
                let t = Instant::now();
                live.session
                    .submit(&e2e::match_statement(&name))
                    .map_err(|e| format!("probe MATCH: {e}"))?;
                submit_ms.push(e2e::ms(t.elapsed()));
                tracer.end(span);
            }
            tracer.end(root);
        }
        scrape = Some(Scrape(
            live.session
                .metrics()
                .map_err(|e| format!("metrics scrape: {e}"))?,
        ));
    }
    let measured = Measured {
        workload: args.workload,
        points: std::mem::take(&mut live.points),
        setup_s,
        generate_s,
        push,
        history: live.history.take(),
        matched,
        bound: std::mem::take(&mut live.bound),
        queries,
        bind_ms,
        submit_ms,
        peak_rss_mb,
        server_cpu_s,
        scrape,
        tracer,
    };
    live.server.stop();
    Ok(measured)
}

/// The outcome of the output checks.
pub struct Checked {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub reference: Reference,
    /// Per distinct MATCH query: `(candidates, refined, matches)`.
    pub match_counts: Vec<(u64, u64, usize)>,
}

fn check_outputs(m: &Measured) -> Checked {
    let ds = m.workload.dataset();
    let pushed = m.pushed();
    let (attempted, failed) = plain_counts(m);
    let query = check::cluster_query(ds.theta_r, ds.theta_c, ds.dim);
    let reference = check::reference(&query, &m.points);
    let mut correct = pushed.windows.len() as u64 == pushed.expected
        && reference.windows.len() as u64 == pushed.expected
        && check::digests(&pushed.windows) == check::digests(&reference.windows);
    if !correct {
        eprintln!(
            "perfbench: pushed windows differ from the reference ({} pushed, {} expected)",
            pushed.windows.len(),
            pushed.expected
        );
    }

    let mut match_counts = Vec::new();
    if let Some(matched) = &m.matched {
        let base = check::rebuild_base(&check::summaries(&pushed.windows));
        let oracle = check::exhaustive(&base, &m.bound);
        let mut seen: Vec<Option<(u64, u64, usize)>> = vec![None; m.bound.len()];
        for issued in &matched.issued {
            let Some(reply) = &issued.reply else {
                continue;
            };
            let counts = (reply.candidates, reply.refined, reply.matches.len());
            // Every reply equals the exhaustive answer, and repeats of
            // one statement report identical filter counts.
            let repeat_ok = seen[issued.query].is_none_or(|c| c == counts);
            seen[issued.query] = Some(counts);
            if !repeat_ok || !check::reply_equals(reply, &oracle[issued.query]) {
                eprintln!("perfbench: MATCH reply for Cq{} is wrong", issued.query);
                correct = false;
            }
        }
        match_counts = seen.into_iter().flatten().collect();
    }
    Checked {
        correct,
        attempted,
        failed,
        reference,
        match_counts,
    }
}

/// `(name, value, unit)` rows of one metric object.
pub type Rows = Vec<(String, f64, &'static str)>;

/// The workload's primary request latency and rate: window latency and
/// tuples/s for the push workloads, MATCH round trip and statements/s
/// for stt-match.
fn primary(m: &Measured) -> (Samples, f64) {
    match (&m.matched, &m.push) {
        (Some(matched), _) => {
            let ok: Vec<f64> = matched
                .issued
                .iter()
                .filter(|i| i.reply.is_some())
                .map(|i| i.latency_ms)
                .collect();
            let rate = ok.len() as f64 / matched.elapsed_s;
            (Samples::from_vec(ok), rate)
        }
        (None, Some(push)) => (push.latency_ms.clone(), push.tuples_per_s(m.points.len())),
        (None, None) => unreachable!("every workload has a measured phase"),
    }
}

fn end_to_end(m: &Measured) -> Result<Rows, String> {
    // One latency sample per operation: a pushed window, or an answered
    // MATCH statement.
    let ops = primary(m).0.len();
    if ops == 0 {
        return Err("the measured phase completed no operation".into());
    }
    Ok(vec![
        ("setup_s".into(), median(m.setup_s.values()), "s"),
        (
            "server_cpu_ms_per_op".into(),
            m.server_cpu_s * 1e3 / ops as f64,
            "ms",
        ),
        ("peak_rss_mb".into(), m.peak_rss_mb, "MiB"),
    ])
}

/// Operations a pass attempted and lost, without its output checks.
fn plain_counts(m: &Measured) -> (u64, u64) {
    let pushed = m.pushed();
    let (mut attempted, mut failed) = (pushed.attempted, pushed.failed);
    if let Some(matched) = &m.matched {
        attempted += matched.issued.len() as u64;
        failed += matched.issued.iter().filter(|i| i.reply.is_none()).count() as u64;
    }
    (attempted, failed)
}

/// The client-observed wall-clock numbers of a pass.
fn client_rows(m: &Measured) -> Result<Rows, String> {
    let (latency, rate) = primary(m);
    Ok(vec![
        ("client.latency_p50_ms".into(), latency.p50()?, "ms"),
        ("client.latency_p95_ms".into(), latency.p95()?, "ms"),
        ("client.ops_per_s".into(), rate, "1/s"),
    ])
}

/// The measured quantities under their specific names, with sample
/// counts.
fn detail(m: &Measured, c: &Checked) -> String {
    let mut fields: Vec<String> = Vec::new();
    let mut put = |k: &str, v: String| fields.push(format!("\"{k}\":{v}"));
    let pushed = m.pushed();
    put("points", m.points.len().to_string());
    put("windows_expected", pushed.expected.to_string());
    put("windows_received", pushed.windows.len().to_string());
    put(
        "ingest_tuples_per_s",
        num(pushed.tuples_per_s(m.points.len())),
    );
    put("feed_calls", pushed.feed_call_ms.len().to_string());
    put(
        "window_latency_samples",
        pushed.latency_ms.len().to_string(),
    );
    put(
        "window_latency_p50_ms",
        num(pushed.latency_ms.p50().unwrap_or(0.0)),
    );
    if let Ok(p95) = pushed.latency_ms.p95() {
        put("window_latency_p95_ms", num(p95));
    }
    put("send_lag_samples", pushed.send_lag_ms.len().to_string());
    if let Ok(p95) = pushed.send_lag_ms.p95() {
        put("send_lag_p95_ms", num(p95));
    }
    if let Some(matched) = &m.matched {
        let (latency, rate) = primary(m);
        put("match_statements", matched.issued.len().to_string());
        put("match_latency_samples", latency.len().to_string());
        put("match_latency_p50_ms", num(latency.p50().unwrap_or(0.0)));
        if let Ok(p95) = latency.p95() {
            put("match_latency_p95_ms", num(p95));
        }
        put("match_queries_per_s", num(rate));
        let counts: Vec<String> = c
            .match_counts
            .iter()
            .map(|(cand, refined, matches)| format!("[{cand},{refined},{matches}]"))
            .collect();
        put("match_counts_per_query", format!("[{}]", counts.join(",")));
    }
    put("server_cpu_s", num(m.server_cpu_s));
    put("setup_samples", m.setup_s.len().to_string());
    put(
        "failed_ops_ratio",
        num(c.failed as f64 / c.attempted.max(1) as f64),
    );
    put("failed_ops", c.failed.to_string());
    put("attempted_ops", c.attempted.to_string());
    format!("{{{}}}", fields.join(","))
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn metrics_object(rows: &Rows) -> Result<String, String> {
    let mut fields = Vec::new();
    for (name, value, unit) in rows {
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number"));
        }
        fields.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    Ok(format!("{{{}}}", fields.join(",")))
}

fn meta(args: &Args, m: &Measured) -> String {
    let spec = ServerSpec {
        binary: args.server_bin.clone(),
        metrics: args.trace,
    };
    format!(
        "{{\"host\":{},\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"nproc\":{},\"server_flags\":\"{}\",\"points\":{},\"query_pieces\":\"{}x{}\",\"setup_reps\":{}}}",
        args.meta,
        m.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |p| p.get()),
        spec.args().join(" "),
        m.points.len(),
        SEGMENTS,
        QUERY_PIECE,
        m.setup_s.len(),
    )
}

/// Run the workload and return the report; its last line is the result.
pub fn run(args: &Args) -> Result<String, String> {
    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        args.trace as u8
    );
    let (m, c, rows, mut text) = if args.trace {
        traced(args, &tag)?
    } else {
        let m = measure(args, false, args.workload.setup_reps())?;
        let c = check_outputs(&m);
        let rows = end_to_end(&m)?;
        (m, c, rows, String::new())
    };
    text.push_str(&format!(
        "# meta {}\n# detail {}\n",
        meta(args, &m),
        detail(&m, &c)
    ));
    let result = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        c.correct && c.failed == 0,
        c.attempted,
        c.failed,
        metrics_object(&rows)?
    );
    text.push_str(&result);
    let path = args.out_dir.join(format!("result-{tag}.txt"));
    std::fs::write(&path, format!("{text}\n"))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(text)
}

/// The traced run: an untraced pass for the overhead baseline, a traced
/// pass against a server with its registry on, then the per-layer
/// replays on the traced pass's inputs and outputs.
fn traced(args: &Args, tag: &str) -> Result<(Measured, Checked, Rows, String), String> {
    // The untraced pass only times; its outputs are those of the traced
    // pass, which is checked.
    let plain = measure(args, false, 1)?;
    let plain_p50 = primary(&plain).0.p50()?;
    let client = client_rows(&plain)?;
    let (plain_attempted, plain_failed) = plain_counts(&plain);
    drop(plain);

    let m = measure(args, true, 1)?;
    let mut c = check_outputs(&m);
    c.attempted += plain_attempted;
    c.failed += plain_failed;

    let mut layer_tracer = Tracer::new(true, Instant::now());
    let (layer_rows, layers_ok) = layers::replay(args, &m, &c.reference, &mut layer_tracer)?;
    c.correct &= layers_ok;
    let mut rows = client;
    rows.extend(layer_rows);
    rows.push((
        "trace.unaccounted_share".into(),
        trace::unaccounted_share(m.tracer.spans()),
        "ratio",
    ));
    rows.push((
        "trace.overhead_ratio".into(),
        primary(&m).0.p50()? / plain_p50,
        "ratio",
    ));

    let mut text = trace::waterfall(&format!("{tag} end-to-end"), m.tracer.spans());
    text.push_str(&trace::waterfall(
        &format!("{tag} layer replays"),
        layer_tracer.spans(),
    ));
    for (name, value, unit) in &rows {
        text.push_str(&format!("# layer {name:<36} {value:>16.6} {unit}\n"));
    }
    for (which, spans) in [("e2e", m.tracer.spans()), ("layers", layer_tracer.spans())] {
        let path = args.out_dir.join(format!("spans-{tag}-{which}.jsonl"));
        trace::write_jsonl(&path, spans)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok((m, c, rows, text))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_seeded_and_segmented() {
        let (a, pieces) = generate(STT, 40_000, 7);
        assert_eq!(a.len(), 40_000);
        assert!(a.iter().enumerate().all(|(i, p)| p.ts == i as u64));
        assert_eq!(pieces.len(), SEGMENTS);
        assert!(pieces.iter().all(|p| p.len() == QUERY_PIECE));
        let (b, _) = generate(STT, 40_000, 7);
        assert!(a.iter().zip(&b).all(|(x, y)| x.coords == y.coords));
        let (c, _) = generate(STT, 40_000, 8);
        assert!(a.iter().zip(&c).any(|(x, y)| x.coords != y.coords));
        // Segment 1 is the second eighth of its own stream, and its query
        // piece is the stretch of that stream right after it.
        let stream1 = generate_stt(&SttConfig {
            n_records: 40_000 + QUERY_PIECE,
            seed: splitmix64(7 ^ splitmix64(2)),
            ..SttConfig::default()
        });
        assert_eq!(a[5_000].coords, stream1[5_000].coords);
        assert_eq!(a[9_999].coords, stream1[9_999].coords);
        assert_eq!(pieces[1][0].coords, stream1[10_000].coords);
        assert_eq!(generate(GMTI, 40_000, 1).0.len(), 40_000);
    }

    #[test]
    fn spread_picks_evenly() {
        let all: Vec<u32> = (0..10).collect();
        assert_eq!(spread(&all, 5), vec![0, 2, 4, 6, 8]);
        assert_eq!(spread(&all, 20).len(), 10);
    }
}

//! The end-to-end phases, driven through the public `sgs_client::Session`
//! API: a push phase (points fed, windows pushed back) in a closed or an
//! open loop, and a MATCH phase over two sessions.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use sgs_client::{Session, Submitted};
use sgs_core::{Point, WindowId};
use sgs_csgs::WindowOutput;
use sgs_wire::WireMatch;

use crate::server::REQUEST_TIMEOUT;
use crate::stats::{closing_tuple, due_offset, window_count, Samples};
use crate::trace::Tracer;

/// Every workload runs the paper's window setting.
pub const WIN: u64 = 10_000;
pub const SLIDE: u64 = 1_000;
/// Tuples per `feed` call: half a slide, so every run makes at least 200
/// calls and the feed p95 is reportable.
pub const CHUNK: usize = 500;

/// The MATCH statements' distance threshold (the §8.2 setting).
pub const MATCH_THRESHOLD: f64 = 0.15;

#[derive(Clone, Copy, Debug)]
pub enum Pace {
    /// Send as soon as at most `credit` windows are outstanding: the
    /// server always has the next slide queued, but the input queue
    /// never grows, so window latency is service time, not queue depth.
    Closed { credit: u64 },
    /// Send chunk `i` at `i · CHUNK / rate` seconds whatever happened
    /// before.
    Open { rate: u64 },
}

/// What a push phase saw.
pub struct PushOutcome {
    pub expected: u64,
    /// Pushed windows in arrival order.
    pub windows: Vec<(WindowId, WindowOutput)>,
    /// Sizes of the pushed batches, in arrival order.
    pub batches: Vec<usize>,
    /// Per window: arrival minus the due time of the chunk that closed it.
    pub latency_ms: Samples,
    pub feed_call_ms: Samples,
    /// Per chunk: how late the generator sent it against its due time.
    pub send_lag_ms: Samples,
    pub elapsed_s: f64,
    pub attempted: u64,
    pub failed: u64,
}

impl PushOutcome {
    pub fn tuples_per_s(&self, n: usize) -> f64 {
        n as f64 / self.elapsed_s
    }
}

struct Receiver {
    query: u64,
    windows: Vec<(WindowId, WindowOutput)>,
    arrived: Vec<Instant>,
    batches: Vec<usize>,
    /// Set once a wait failed: later waits are skipped and the windows
    /// still missing count as failed operations.
    broken: bool,
}

impl Receiver {
    fn record(&mut self, batch: Vec<(WindowId, WindowOutput)>) {
        let now = Instant::now();
        self.batches.push(batch.len());
        for window in batch {
            self.windows.push(window);
            self.arrived.push(now);
        }
    }

    /// Wait until `need` windows have arrived. Returns the arrival time
    /// of the window that met the need, or `None` if no wait was needed.
    fn wait_for(
        &mut self,
        session: &mut Session,
        need: u64,
        tracer: &mut Tracer,
    ) -> Option<Instant> {
        if self.windows.len() as u64 >= need || self.broken {
            return None;
        }
        let span = tracer.begin("client.wait_windows", need);
        let deadline = Instant::now() + REQUEST_TIMEOUT;
        match session.subscribe(self.query) {
            Ok(mut sub) => {
                while (self.windows.len() as u64) < need {
                    let left = deadline.saturating_duration_since(Instant::now());
                    match sub.wait_windows(left.max(Duration::from_micros(1))) {
                        Ok(Some(batch)) => self.record(batch),
                        Ok(None) | Err(_) => {
                            self.broken = true;
                            break;
                        }
                    }
                }
            }
            Err(_) => self.broken = true,
        }
        tracer.end(span);
        self.arrived.last().copied()
    }

    /// Take pushed windows until `due`.
    fn wait_until(&mut self, session: &mut Session, due: Instant, tracer: &mut Tracer) {
        if Instant::now() >= due || self.broken {
            return;
        }
        let span = tracer.begin("client.wait_windows", 0);
        match session.subscribe(self.query) {
            Ok(mut sub) => loop {
                let left = due.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break;
                }
                match sub.wait_windows(left) {
                    Ok(Some(batch)) => self.record(batch),
                    Ok(None) => break,
                    Err(_) => {
                        self.broken = true;
                        break;
                    }
                }
            },
            Err(_) => self.broken = true,
        }
        tracer.end(span);
    }
}

/// Feed `points` into `stream` in `CHUNK`-tuple calls at `pace`, taking
/// the windows of the subscribed query `query` as they are pushed, and
/// stop once the known window count has arrived.
pub fn push_phase(
    session: &mut Session,
    query: u64,
    stream: &str,
    points: &[Point],
    pace: Pace,
    tracer: &mut Tracer,
) -> PushOutcome {
    let n = points.len() as u64;
    let expected = window_count(n, WIN, SLIDE);
    let mut rx = Receiver {
        query,
        windows: Vec::with_capacity(expected as usize),
        arrived: Vec::with_capacity(expected as usize),
        batches: Vec::new(),
        broken: false,
    };
    let mut feed_call_ms = Samples::new();
    let mut send_lag_ms = Samples::new();
    let mut due_of_chunk: Vec<Instant> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);

    let root = tracer.begin("run.push", 0);
    let start = Instant::now();
    let mut ready = start;
    for (i, chunk) in points.chunks(CHUNK).enumerate() {
        let due = match pace {
            Pace::Open { rate } => {
                let due = start + due_offset(i as u64, CHUNK as u64, rate);
                rx.wait_until(session, due, tracer);
                due
            }
            Pace::Closed { credit } => {
                let sent_after = (i * CHUNK + chunk.len()) as u64;
                let need = window_count(sent_after, WIN, SLIDE).saturating_sub(credit);
                match rx.wait_for(session, need, tracer) {
                    Some(freed) => freed.max(ready),
                    None => ready,
                }
            }
        };
        let sent = Instant::now();
        send_lag_ms.push(ms(sent.saturating_duration_since(due)));
        let span = tracer.begin("client.feed", i as u64);
        let fed = session.feed(stream, chunk);
        tracer.end(span);
        ready = Instant::now();
        feed_call_ms.push(ms(ready - sent));
        attempted += 1;
        if fed.is_err() {
            failed += 1;
            rx.broken = true;
        }
        due_of_chunk.push(due);
    }
    rx.wait_for(session, expected, tracer);
    tracer.end(root);
    let end = rx.arrived.last().copied().unwrap_or_else(Instant::now);

    let mut latency_ms = Samples::new();
    for (k, arrived) in rx.arrived.iter().enumerate() {
        let chunk = (closing_tuple(k as u64, WIN, SLIDE) / CHUNK as u64) as usize;
        // A window beyond the expected count has no closing chunk; the
        // output check rejects the run.
        if let Some(due) = due_of_chunk.get(chunk) {
            latency_ms.push(ms(arrived.saturating_duration_since(*due)));
        }
    }
    let received = rx.windows.len() as u64;
    attempted += expected;
    failed += expected.saturating_sub(received);
    PushOutcome {
        expected,
        windows: rx.windows,
        batches: rx.batches,
        latency_ms,
        feed_call_ms,
        send_lag_ms,
        elapsed_s: (end - start).as_secs_f64(),
        attempted,
        failed,
    }
}

pub fn detect_statement(stream: &str, theta_r: f64, theta_c: u32) -> String {
    format!(
        "DETECT DensityBasedClusters f+s FROM {stream} \
         USING theta_range = {theta_r} AND theta_cnt = {theta_c} \
         IN Windows WITH win = {WIN} AND slide = {SLIDE}"
    )
}

pub fn match_statement(name: &str) -> String {
    format!(
        "GIVEN DensityBasedClusters {name} \
         SELECT DensityBasedClusters Cp FROM History \
         WHERE Distance({name}, Cp) <= {MATCH_THRESHOLD}"
    )
}

/// One MATCH reply.
#[derive(Clone, Debug, PartialEq)]
pub struct Reply {
    pub candidates: u64,
    pub refined: u64,
    pub matches: Vec<WireMatch>,
}

/// One issued MATCH statement: which bound query, its round trip, and
/// its reply (`None` when the call failed).
pub struct Issued {
    pub query: usize,
    pub latency_ms: f64,
    pub reply: Option<Reply>,
}

pub struct MatchOutcome {
    pub issued: Vec<Issued>,
    pub elapsed_s: f64,
}

/// Issue `GIVEN` statements over the bound names `names`, round robin,
/// from one thread per session, back to back, until at least
/// `min_statements` were issued and `min_time` has passed.
pub fn match_phase(
    sessions: [&mut Session; 2],
    names: &[String],
    min_statements: u64,
    min_time: Duration,
    tracers: &mut [Tracer],
) -> MatchOutcome {
    let statements: Vec<String> = names.iter().map(|n| match_statement(n)).collect();
    let next = AtomicU64::new(0);
    let start = Instant::now();
    let mut issued: Vec<(u64, Issued)> = std::thread::scope(|scope| {
        let workers: Vec<_> = sessions
            .into_iter()
            .zip(tracers.iter_mut())
            .map(|(session, tracer)| {
                let (statements, next) = (&statements, &next);
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    let root = tracer.begin("run.match", 0);
                    loop {
                        let j = next.fetch_add(1, Ordering::SeqCst);
                        if j >= min_statements && start.elapsed() >= min_time {
                            break;
                        }
                        let query = (j % statements.len() as u64) as usize;
                        let span = tracer.begin("client.submit", j);
                        let sent = Instant::now();
                        let reply = session.submit(&statements[query]);
                        let latency_ms = ms(sent.elapsed());
                        tracer.end(span);
                        let reply = match reply {
                            Ok(Submitted::Matches {
                                candidates,
                                refined,
                                matches,
                            }) => Some(Reply {
                                candidates,
                                refined,
                                matches,
                            }),
                            _ => None,
                        };
                        mine.push((
                            j,
                            Issued {
                                query,
                                latency_ms,
                                reply,
                            },
                        ));
                    }
                    tracer.end(root);
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("match session thread"))
            .collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    issued.sort_by_key(|(j, _)| *j);
    MatchOutcome {
        issued: issued.into_iter().map(|(_, i)| i).collect(),
        elapsed_s,
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

//! The system under test: a `streamsum-server` child process on an
//! OS-assigned loopback port, with a fixed thread budget.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

use sgs_client::{ClientConfig, Session};
use sgs_wire::{WireMetric, WireMetricValue};

/// Reactor dispatch workers and runtime pool workers: one of each per
/// core of the 2-core machine the benchmark was sized on.
pub const DISPATCH_THREADS: u32 = 2;
pub const POOL_THREADS: u32 = 2;

/// Deadline on every client request, so a lost reply fails the operation
/// instead of hanging the run.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// `USER_HZ`, the unit of `/proc/<pid>/stat` CPU times on Linux.
const CLOCK_TICKS_PER_S: f64 = 100.0;

#[derive(Clone, Debug)]
pub struct ServerSpec {
    pub binary: PathBuf,
    pub metrics: bool,
}

impl ServerSpec {
    pub fn args(&self) -> Vec<String> {
        let mut args: Vec<String> = vec![
            "--addr".into(),
            "127.0.0.1:0".into(),
            "--dispatch-threads".into(),
            DISPATCH_THREADS.to_string(),
            "--pool-threads".into(),
            POOL_THREADS.to_string(),
        ];
        if self.metrics {
            args.push("--metrics-addr".into());
            args.push("127.0.0.1:0".into());
        }
        args
    }
}

pub struct Server {
    child: Child,
    // Held open so the child never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Server {
    /// Start the server and wait for its listening line.
    pub fn start(spec: &ServerSpec) -> Result<Server, String> {
        let mut child = Command::new(&spec.binary)
            .args(spec.args())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", spec.binary.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        loop {
            line.clear();
            let read = stdout.read_line(&mut line);
            if !matches!(read, Ok(n) if n > 0) {
                let _ = child.kill();
                let _ = child.wait();
                return Err("server exited before it was listening".into());
            }
            if let Some(rest) = line.trim().strip_prefix("streamsum-server listening on ") {
                let addr = rest.split_whitespace().next().unwrap_or("");
                let addr: SocketAddr = match addr.parse() {
                    Ok(addr) => addr,
                    Err(_) => {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(format!("unparsable listening line {line:?}"));
                    }
                };
                return Ok(Server {
                    child,
                    _stdout: stdout,
                    addr,
                });
            }
        }
    }

    pub fn connect(&self) -> Result<Session, String> {
        let config = ClientConfig {
            request_timeout: Some(REQUEST_TIMEOUT),
            ..ClientConfig::new()
        };
        Session::connect_with(self.addr, config).map_err(|e| format!("connect: {e}"))
    }

    /// The child's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(Path::new(&format!("/proc/{}/status", self.child.id())))
    }

    /// CPU time (user + system, all threads) the child has used, in
    /// seconds. Time the hypervisor stole is not in it.
    pub fn cpu_s(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.child.id());
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line, in clock ticks.
        let rest = text.rsplit_once(')').ok_or("unparsable stat line")?.1;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|v| v.parse::<f64>().ok())
                .ok_or_else(|| "unparsable stat line".to_string())
        };
        Ok((ticks(11)? + ticks(12)?) / CLOCK_TICKS_PER_S)
    }

    /// Kill the child and wait until it has exited.
    pub fn stop(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn peak_rss_mb(status: &Path) -> Result<f64, String> {
    let text = std::fs::read_to_string(status)
        .map_err(|e| format!("cannot read {}: {e}", status.display()))?;
    let line = text
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("unparsable VmHWM line")?;
    Ok(kib / 1024.0)
}

/// A scrape of the server's metric registry.
pub struct Scrape(pub Vec<WireMetric>);

impl Scrape {
    pub fn counter(&self, name: &str) -> u64 {
        self.0
            .iter()
            .filter(|m| m.name == name)
            .map(|m| match m.value {
                WireMetricValue::Counter(v) => v,
                _ => 0,
            })
            .sum()
    }

    /// Sum of every counter whose name starts with `prefix` (all label
    /// values of one family).
    pub fn counter_family(&self, prefix: &str) -> u64 {
        self.0
            .iter()
            .filter(|m| m.name.starts_with(prefix))
            .map(|m| match m.value {
                WireMetricValue::Counter(v) => v,
                _ => 0,
            })
            .sum()
    }

    /// `(count, p50, p95)` of a histogram, in its recorded unit.
    pub fn histogram(&self, name: &str) -> (u64, u64, u64) {
        self.0
            .iter()
            .find_map(|m| match (&m.value, m.name == name) {
                (
                    WireMetricValue::Histogram {
                        count, p50, p95, ..
                    },
                    true,
                ) => Some((*count, *p50, *p95)),
                _ => None,
            })
            .unwrap_or((0, 0, 0))
    }
}

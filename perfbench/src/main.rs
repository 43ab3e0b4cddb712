//! End-to-end benchmark of `streamsum-server`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --server-bin <path> --out-dir <dir> [--meta <json>]
//! ```
//!
//! `run.py` builds the server and this program and passes the last three
//! options. The last line of standard output is the result object.

mod check;
mod e2e;
mod layers;
mod server;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use workload::{Args, Workload};

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        argv.windows(2)
            .find(|w| w[0] == flag)
            .map(|w| w[1].clone())
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = value("--workload")?;
    let workload =
        Workload::parse(&workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed: u64 = value("--seed")?.parse().map_err(|_| "bad --seed")?;
    let seconds: u64 = value("--seconds")?.parse().map_err(|_| "bad --seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        server_bin: PathBuf::from(value("--server-bin")?),
        out_dir: PathBuf::from(value("--out-dir")?),
        meta: value("--meta").unwrap_or_else(|_| "{}".into()),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.out_dir.display());
        return ExitCode::FAILURE;
    }
    match workload::run(&args) {
        Ok(report) => {
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

//! Workload definitions shared by the harness binaries: datasets, the
//! three pattern-parameter cases of §8.1, and the window settings.

use sgs_core::{ClusterQuery, Point, WindowSpec};
use sgs_datagen::{generate_gmti, generate_stt, GmtiConfig, SttConfig};

/// Which stream to run (§8: STT for the main experiments, GMTI mirrored).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dataset {
    /// Stock Trading Traces-like 4-d stream.
    Stt,
    /// GMTI-like 2-d moving-object stream.
    Gmti,
}

impl Dataset {
    /// Parse from a CLI argument.
    pub fn parse(s: &str) -> Option<Dataset> {
        match s.to_ascii_lowercase().as_str() {
            "stt" => Some(Dataset::Stt),
            "gmti" => Some(Dataset::Gmti),
            _ => None,
        }
    }

    /// Dimensionality of the stream.
    pub fn dim(self) -> usize {
        match self {
            Dataset::Stt => 4,
            Dataset::Gmti => 2,
        }
    }

    /// Generate `n` records (seeded; equal calls give equal streams).
    pub fn points(self, n: usize) -> Vec<Point> {
        match self {
            Dataset::Stt => generate_stt(&SttConfig {
                n_records: n,
                ..SttConfig::default()
            }),
            Dataset::Gmti => generate_gmti(&GmtiConfig {
                n_records: n,
                ..GmtiConfig::default()
            }),
        }
    }

    /// The three pattern parameter cases of §8.1, scaled to each stream's
    /// coordinate ranges. For STT these are the paper's values verbatim.
    pub fn cases(self) -> [(f64, u32); 3] {
        match self {
            Dataset::Stt => [(0.05, 10), (0.1, 8), (0.2, 5)],
            Dataset::Gmti => [(0.25, 10), (0.5, 8), (1.0, 5)],
        }
    }
}

/// One experiment configuration: a pattern case plus a window setting.
#[derive(Clone, Debug)]
pub struct Config {
    /// Human-readable label ("case 1, slide 1K").
    pub label: String,
    /// The clustering query.
    pub query: ClusterQuery,
}

/// Build the §8.1 grid of configurations: the dataset's three cases,
/// windows of `win` tuples and slides from `slides`.
pub fn config_grid(dataset: Dataset, win: u64, slides: &[u64]) -> Vec<Config> {
    let mut out = Vec::new();
    for (case_idx, (theta_r, theta_c)) in dataset.cases().into_iter().enumerate() {
        for &slide in slides {
            let spec = WindowSpec::count(win, slide).expect("valid window");
            let query =
                ClusterQuery::new(theta_r, theta_c, dataset.dim(), spec).expect("valid query");
            out.push(Config {
                label: format!(
                    "case {} (θr={theta_r}, θc={theta_c}), slide {slide}",
                    case_idx + 1
                ),
                query,
            });
        }
    }
    out
}

/// Number of windows a count-based query emits over a stream of `n`
/// tuples: window `k` closes when tuple `k·slide + win` arrives, so the
/// last one needs the first tuple of the next slide.
pub fn window_count(n: u64, win: u64, slide: u64) -> u64 {
    assert!(slide > 0, "slide must be positive");
    if n <= win {
        0
    } else {
        (n - win - 1) / slide + 1
    }
}

/// Scale factor from CLI args: `--scale 0.1` shrinks the stream length for
/// quick runs; default 1.0 runs the full configured workload.
pub fn parse_scale(args: &[String]) -> f64 {
    args.windows(2)
        .find(|w| w[0] == "--scale")
        .and_then(|w| w[1].parse().ok())
        .unwrap_or(1.0)
}

/// Dataset from CLI args (`--dataset gmti`), defaulting to STT.
pub fn parse_dataset(args: &[String]) -> Dataset {
    args.windows(2)
        .find(|w| w[0] == "--dataset")
        .and_then(|w| Dataset::parse(&w[1]))
        .unwrap_or(Dataset::Stt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_count_needs_the_closing_tuple() {
        assert_eq!(window_count(10_000, 10_000, 1_000), 0);
        assert_eq!(window_count(10_001, 10_000, 1_000), 1);
        // A stream ending on a slide boundary: (n − win) / slide.
        assert_eq!(window_count(11_000, 10_000, 1_000), 1);
        assert_eq!(window_count(11_001, 10_000, 1_000), 2);
        assert_eq!(window_count(210_000, 10_000, 1_000), 200);
    }

    #[test]
    fn grid_has_cases_times_slides() {
        let grid = config_grid(Dataset::Stt, 1000, &[100, 500]);
        assert_eq!(grid.len(), 6);
        assert!(grid.iter().all(|c| c.query.dim == 4));
    }

    #[test]
    fn parse_args() {
        let args: Vec<String> = ["--scale", "0.25", "--dataset", "gmti"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(parse_scale(&args), 0.25);
        assert_eq!(parse_dataset(&args), Dataset::Gmti);
        assert_eq!(parse_dataset(&[]), Dataset::Stt);
        assert_eq!(parse_scale(&[]), 1.0);
    }

    #[test]
    fn datasets_generate_points() {
        assert_eq!(Dataset::Stt.points(100).len(), 100);
        assert_eq!(Dataset::Gmti.points(100).len(), 100);
    }
}

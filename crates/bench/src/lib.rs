//! `bench` — the experiment harness: one binary per table and figure of the
//! paper's evaluation (see DESIGN.md §2.6 for the index), plus the tracked
//! host-speed and whole-system runs (`simspeed`, `multiwave`, `tune`,
//! `resnet`, `serve`).
//!
//! Every binary prints the same rows/series the paper reports, with the
//! published values alongside for comparison; EXPERIMENTS.md records the
//! paper-vs-measured discussion. Passing `--json <path>` to any experiment
//! binary additionally writes the measured numbers as JSON records (see
//! [`report::Report`]).
//!
//! A binary that simulates declares its grid once, as a list of [`Point`]s,
//! and hands it to the one measuring call, [`report::Report::measure`]: one
//! cached sweep named after the experiment ([`sweep`], flags `--jobs`,
//! `--no-cache`, `--cache-dir` and `--selfcheck`) that simulates each point
//! at most once. Under `--metrics` it counts, and the report builds each
//! point's `kind=metrics` record ([`metrics`]) from the timing the sweep
//! returned, and writes them after the binary's own records.

pub mod metrics;
pub mod metricsdiff;
pub mod report;
pub mod simcache;
pub mod sweep;
pub mod trace;

use gpusim::DeviceSpec;
use wino_core::resnet::ResnetLayer;
use wino_core::{AlgoTiming, Conv, Kernels, Target};

/// The workspace's JSON codec, re-exported for the experiment binaries.
pub use gpusim::json;
pub use wino_core::Algo;

use crate::json::Json;

/// One grid point of an experiment: a convolution, what of it to measure,
/// and the config its `kind=metrics` record is filed under.
#[derive(Clone)]
pub struct Point {
    pub conv: Conv,
    pub target: Target,
    pub config: Vec<(&'static str, Json)>,
}

impl Point {
    /// `algo`'s whole pipeline on `layer` at batch `n` on `dev`, filed under
    /// `{layer, n, algo}`.
    pub fn layer(layer: &ResnetLayer, n: usize, dev: &DeviceSpec, algo: Algo) -> Point {
        Point {
            conv: Conv::new(layer.problem(n), dev.clone()),
            target: Target::algo(algo),
            config: vec![
                ("layer", layer.name.into()),
                ("n", n.into()),
                ("algo", algo.name().into()),
            ],
        }
    }

    /// Main-loop region TFLOPS of `t`, this point's timing, when the point
    /// is a [`Target::mainloop`] build (the Figures 7–9 / ablation
    /// measurement); `None` otherwise.
    pub fn mainloop_tflops(&self, t: &AlgoTiming) -> Option<f64> {
        let Kernels::Fused(cfg) = self.target.kernels else {
            return None;
        };
        let k = t.kernel.as_ref().filter(|_| cfg.main_loop_only)?;
        Some(k.region_tflops(&self.conv.device, cfg.mainloop_flops_per_block()))
    }
}

/// Render a simple aligned table.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                s.push_str(&format!("{:>w$}  ", c, w = widths[i]));
            }
            println!("{}", s.trim_end());
        };
        line(&self.headers);
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for row in &self.rows {
            line(row);
        }
    }
}

/// Format seconds as microseconds.
pub fn us(t: f64) -> String {
    format!("{:.1}", t * 1e6)
}

/// Format a speedup.
pub fn x(v: f64) -> String {
    format!("{v:.2}x")
}

/// Geometric-free average of a slice.
pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_configs() {
        assert_eq!(wino_core::resnet::eval_grid().len(), 16);
    }

    #[test]
    fn table_renders() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        t.print();
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(x(1.5), "1.50x");
    }
}

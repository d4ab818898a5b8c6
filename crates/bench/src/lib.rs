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

pub mod metrics;
pub mod metricsdiff;
pub mod report;
pub mod simcache;
pub mod sweep;
pub mod trace;

use gpusim::DeviceSpec;
use kernels::FusedConfig;
use wino_core::resnet::{eval_grid, ResnetLayer};
use wino_core::{AlgoTiming, Conv, Observe, Target};

use crate::simcache::CacheKey;
use crate::sweep::Sweep;
/// The workspace's JSON codec, re-exported for the experiment binaries.
pub use gpusim::json;
pub use wino_core::Algo;

/// The 16 `(layer, batch)` points used by Tables 2/6 and Figs. 7–13.
pub fn configs() -> Vec<(ResnetLayer, usize)> {
    eval_grid()
}

/// `ConvxNn` label.
pub fn label(layer: &ResnetLayer, n: usize) -> String {
    layer.label(n)
}

/// Conv bound to a device for a grid point.
pub fn conv_for(layer: &ResnetLayer, n: usize, dev: &DeviceSpec) -> Conv {
    Conv::new(layer.problem(n), dev.clone())
}

/// Evaluate [`Conv::measure`] (unobserved) for every `(conv, target)` point
/// on the sweep engine ([`sweep::Sweep::from_args`]: `--jobs/--cache/...`
/// respected) and return the timings in registration order. Each point is
/// content-addressed by [`Conv::key`], so cached and fresh results are
/// indistinguishable bit-for-bit.
pub fn measure_sweep(name: &str, points: Vec<(Conv, Target)>) -> Vec<AlgoTiming> {
    let mut sw = Sweep::from_args(name);
    for (conv, target) in points {
        let key = CacheKey::from_digest(&conv.key(target));
        sw.point(key, move || {
            simcache::algo_timing_to_json(&conv.measure(target, Observe::default()))
        });
    }
    sw.run()
        .results
        .iter()
        .map(|r| simcache::algo_timing_from_json(r).expect("valid algo-timing cache record"))
        .collect()
}

/// [`measure_sweep`] of [`Conv::time`] for every `(conv, algo)` point.
pub fn time_sweep(name: &str, points: Vec<(Conv, Algo)>) -> Vec<AlgoTiming> {
    let targets = points.into_iter().map(|(c, a)| (c, Target::algo(a)));
    measure_sweep(name, targets.collect())
}

/// Main-loop region TFLOPS ([`Target::mainloop`]) for every `(conv, cfg)`
/// point, in registration order (the Figures 7–9 / ablation measurement).
pub fn mainloop_sweep(name: &str, points: Vec<(Conv, FusedConfig)>) -> Vec<f64> {
    let rates: Vec<(DeviceSpec, f64)> = points
        .iter()
        .map(|(c, cfg)| (c.device.clone(), cfg.mainloop_flops_per_block()))
        .collect();
    let targets = points
        .into_iter()
        .map(|(c, cfg)| (c, Target::mainloop(cfg)));
    let kernels = measure_sweep(name, targets.collect())
        .into_iter()
        .map(|t| t.kernel);
    kernels
        .zip(rates)
        .map(|(k, (dev, flops))| k.expect("main loop simulates").region_tflops(&dev, flops))
        .collect()
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
        assert_eq!(configs().len(), 16);
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

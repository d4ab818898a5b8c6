//! Figure 7: main-loop throughput under different yield strategies
//! (RTX 2070). Paper: "Natural" (never clearing the yield flag) achieves
//! 1.09× over NVCC's every-8 and 1.11× over cuDNN's every-7 heuristic.
//!
//! Figures 8 and 9 are the same experiment over another scheduling knob:
//! `fig8` and `fig9` include this file and call [`run`] with their own
//! [`Knob`].

use bench::report::{check_args, Report, REPORT_FLAGS, SWEEP_FLAGS};
use bench::{Point, Table};
use gpusim::DeviceSpec;
use kernels::{FusedConfig, YieldStrategy};
use wino_core::resnet::eval_grid;
use wino_core::{Conv, Target};

fn main() {
    check_args("fig7", &[REPORT_FLAGS, SWEEP_FLAGS]);
    run(&Knob {
        fig: "Figure 7",
        experiment: "fig7",
        title: "yield strategy",
        paper: "Natural ~1.09-1.11x over NVCC/cuDNN heuristics",
        field: "yield",
        settings: [
            ("cudnn", "cuDNN", |c| {
                c.yield_strategy = YieldStrategy::Cudnn
            }),
            ("nvcc", "NVCC", |c| c.yield_strategy = YieldStrategy::Nvcc),
            ("natural", "Natural", |c| {
                c.yield_strategy = YieldStrategy::Natural
            }),
        ],
        over: &[0, 1],
    });
}

/// One setting of a knob: its record value, its column header and its
/// change to the OURS config.
pub type Setting = (&'static str, &'static str, fn(&mut FusedConfig));

/// A main-loop scheduling knob of the OURS kernel and three of its
/// settings, the paper's last.
pub struct Knob {
    /// Figure label, as the header line starts.
    pub fig: &'static str,
    /// Sweep and report name.
    pub experiment: &'static str,
    /// What the table compares, as the header line names it.
    pub title: &'static str,
    /// The paper's claim, as the second header line quotes it.
    pub paper: &'static str,
    /// The record's config key for the setting.
    pub field: &'static str,
    pub settings: [Setting; 3],
    /// Columns the last setting's summed TFLOPS is divided by, in the
    /// closing ratio line.
    pub over: &'static [usize],
}

/// Print and report `knob`'s main-loop TFLOPS table on the 16-point
/// evaluation grid (simulated RTX 2070).
pub fn run(knob: &Knob) {
    println!(
        "{}: main-loop TFLOPS by {} (simulated RTX 2070)",
        knob.fig, knob.title
    );
    println!("Paper: {}\n", knob.paper);
    let dev = DeviceSpec::rtx2070();
    let mut points = Vec::new();
    for (layer, n) in eval_grid() {
        for (name, _, set) in knob.settings {
            let conv = Conv::new(layer.problem(n), dev.clone());
            let mut cfg = conv.ours_config();
            set(&mut cfg);
            points.push(Point {
                conv,
                target: Target::mainloop(cfg),
                config: vec![
                    ("layer", layer.name.into()),
                    ("n", n.into()),
                    (knob.field, name.into()),
                ],
            });
        }
    }
    let mut report = Report::from_args(knob.experiment);
    let timings = report.measure(&points);
    let mut measured = points.iter().zip(&timings);

    let columns = knob.settings.map(|(_, column, _)| column);
    let mut t = Table::new(&["layer", columns[0], columns[1], columns[2]]);
    let mut sums = [0.0f64; 3];
    for (layer, n) in eval_grid() {
        let mut row = vec![layer.label(n)];
        for sum in &mut sums {
            let (p, timing) = measured.next().unwrap();
            let tflops = p.mainloop_tflops(timing).expect("main loop simulates");
            *sum += tflops;
            row.push(format!("{tflops:.2}"));
            report.add(dev.name, &p.config, &[("mainloop_tflops", tflops.into())]);
        }
        t.row(row);
    }
    t.print();
    let ratios: Vec<String> = knob
        .over
        .iter()
        .map(|&i| format!("{}/{} = {:.3}x", columns[2], columns[i], sums[2] / sums[i]))
        .collect();
    println!("\n{}", ratios.join(", "));
    report.finish();
}

//! Figure 10: Speed-of-Light (FP32-pipe utilization) on RTX 2070, whole
//! kernel ("Total") and main loop. Paper: main loop 87.5-93%, total ≥ ~80%.

use bench::report::{check_args, Report, REPORT_FLAGS, SWEEP_FLAGS};
use bench::{Point, Table};
use gpusim::DeviceSpec;
use wino_core::resnet::eval_grid;
use wino_core::Algo;

fn main() {
    check_args("fig10", &[REPORT_FLAGS, SWEEP_FLAGS]);
    run(
        DeviceSpec::rtx2070(),
        "Figure 10",
        "RTX 2070",
        "fig10",
        "total above ~80% for large batch",
    );
}

/// Print and report `experiment`'s Speed-of-Light table on `dev`; `paper`
/// is the published whole-kernel range.
pub fn run(dev: DeviceSpec, fig: &str, name: &str, experiment: &str, paper: &str) {
    println!("{fig}: Speed of Light (simulated {name})");
    println!("Paper: main loop up to ~93%, {paper}\n");
    let grid = eval_grid();
    let points: Vec<Point> = grid
        .iter()
        .map(|(layer, n)| Point::layer(layer, *n, &dev, Algo::OursFused))
        .collect();
    let mut report = Report::from_args(experiment);
    let timings = report.measure(&points);

    let mut t = Table::new(&["layer", "Total %", "Main loop %"]);
    for ((layer, n), timing) in grid.into_iter().zip(timings) {
        let k = timing.kernel.expect("fused kernel timing");
        t.row(vec![
            layer.label(n),
            format!("{:.1}", k.sol_total_pct),
            format!("{:.1}", k.sol_pct),
        ]);
        report.add(
            dev.name,
            &[("layer", layer.name.into()), ("n", n.into())],
            &[
                ("sol_total_pct", k.sol_total_pct.into()),
                ("sol_mainloop_pct", k.sol_pct.into()),
            ],
        );
    }
    t.print();
    report.finish();
}

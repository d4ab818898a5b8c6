//! Figure 9: main-loop throughput under different STS scheduling strategies
//! (RTX 2070). Paper: STS6 is ~2% over STS2.

use bench::report::{check_args, Report, REPORT_FLAGS, SWEEP_FLAGS};
use bench::{Point, Table};
use gpusim::DeviceSpec;
use kernels::StsStrategy;
use wino_core::resnet::eval_grid;
use wino_core::{Conv, Target};

fn main() {
    check_args("fig9", &[REPORT_FLAGS, SWEEP_FLAGS]);
    println!("Figure 9: main-loop TFLOPS by STS interleave (simulated RTX 2070)");
    println!("Paper: STS6 ~2% over STS2\n");
    let dev = DeviceSpec::rtx2070();
    let strategies = [
        ("sts2", StsStrategy::Sts2),
        ("sts4", StsStrategy::Sts4),
        ("sts6", StsStrategy::Sts6),
    ];
    let mut points = Vec::new();
    for (layer, n) in eval_grid() {
        for (name, strat) in strategies {
            let conv = Conv::new(layer.problem(n), dev.clone());
            let mut cfg = conv.ours_config();
            cfg.sts = strat;
            points.push(Point {
                conv,
                target: Target::mainloop(cfg),
                config: vec![
                    ("layer", layer.name.into()),
                    ("n", n.into()),
                    ("sts", name.into()),
                ],
            });
        }
    }
    let mut report = Report::from_args("fig9");
    let timings = report.measure(&points);
    let mut measured = points.iter().zip(&timings);

    let mut t = Table::new(&["layer", "STS2", "STS4", "STS6"]);
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
    println!("\nSTS6/STS2 = {:.3}x", sums[2] / sums[0]);
    report.finish();
}

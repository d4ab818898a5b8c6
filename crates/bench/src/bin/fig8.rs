//! Figure 8: main-loop throughput under different LDG scheduling strategies
//! (RTX 2070). Paper: LDG8 (one LDG per 8 FFMAs) beats cuDNN's LDG2 by up
//! to 1.24×.

use bench::report::{check_args, Report, REPORT_FLAGS, SWEEP_FLAGS};
use bench::{Point, Table};
use gpusim::DeviceSpec;
use kernels::LdgStrategy;
use wino_core::resnet::eval_grid;
use wino_core::{Conv, Target};

fn main() {
    check_args("fig8", &[REPORT_FLAGS, SWEEP_FLAGS]);
    println!("Figure 8: main-loop TFLOPS by LDG interleave (simulated RTX 2070)");
    println!("Paper: LDG8 up to 1.24x over LDG2\n");
    let dev = DeviceSpec::rtx2070();
    let strategies = [
        ("ldg2", LdgStrategy::Ldg2),
        ("ldg4", LdgStrategy::Ldg4),
        ("ldg8", LdgStrategy::Ldg8),
    ];
    let mut points = Vec::new();
    for (layer, n) in eval_grid() {
        for (name, strat) in strategies {
            let conv = Conv::new(layer.problem(n), dev.clone());
            let mut cfg = conv.ours_config();
            cfg.ldg = strat;
            points.push(Point {
                conv,
                target: Target::mainloop(cfg),
                config: vec![
                    ("layer", layer.name.into()),
                    ("n", n.into()),
                    ("ldg", name.into()),
                ],
            });
        }
    }
    let mut report = Report::from_args("fig8");
    let timings = report.measure(&points);
    let mut measured = points.iter().zip(&timings);

    let mut t = Table::new(&["layer", "LDG2", "LDG4", "LDG8"]);
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
    println!("\nLDG8/LDG2 = {:.3}x", sums[2] / sums[0]);
    report.finish();
}

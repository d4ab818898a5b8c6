//! Figure 7: main-loop throughput under different yield strategies
//! (RTX 2070). Paper: "Natural" (never clearing the yield flag) achieves
//! 1.09× over NVCC's every-8 and 1.11× over cuDNN's every-7 heuristic.

use bench::report::{check_args, Report, REPORT_FLAGS, SWEEP_FLAGS};
use bench::{Point, Table};
use gpusim::DeviceSpec;
use kernels::YieldStrategy;
use wino_core::resnet::eval_grid;
use wino_core::{Conv, Target};

fn main() {
    check_args("fig7", &[REPORT_FLAGS, SWEEP_FLAGS]);
    println!("Figure 7: main-loop TFLOPS by yield strategy (simulated RTX 2070)");
    println!("Paper: Natural ~1.09-1.11x over NVCC/cuDNN heuristics\n");
    let dev = DeviceSpec::rtx2070();
    let strategies = [
        ("cudnn", YieldStrategy::Cudnn),
        ("nvcc", YieldStrategy::Nvcc),
        ("natural", YieldStrategy::Natural),
    ];
    let mut points = Vec::new();
    for (layer, n) in eval_grid() {
        for (name, strat) in strategies {
            let conv = Conv::new(layer.problem(n), dev.clone());
            let mut cfg = conv.ours_config();
            cfg.yield_strategy = strat;
            points.push(Point {
                conv,
                target: Target::mainloop(cfg),
                config: vec![
                    ("layer", layer.name.into()),
                    ("n", n.into()),
                    ("yield", name.into()),
                ],
            });
        }
    }
    let mut report = Report::from_args("fig7");
    let timings = report.measure(&points);
    let mut measured = points.iter().zip(&timings);

    let mut t = Table::new(&["layer", "cuDNN", "NVCC", "Natural"]);
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
    println!(
        "\nNatural/cuDNN = {:.3}x, Natural/NVCC = {:.3}x",
        sums[2] / sums[0],
        sums[2] / sums[1]
    );
    report.finish();
}

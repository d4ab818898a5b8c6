//! Figure 7: main-loop throughput under different yield strategies
//! (RTX 2070). Paper: "Natural" (never clearing the yield flag) achieves
//! 1.09× over NVCC's every-8 and 1.11× over cuDNN's every-7 heuristic.

use bench::report::{check_args, Report, REPORT_FLAGS, SWEEP_FLAGS};
use bench::{configs, conv_for, label, mainloop_sweep, Table};
use gpusim::DeviceSpec;
use kernels::YieldStrategy;

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
    for (layer, n) in configs() {
        for (_, strat) in strategies {
            let conv = conv_for(&layer, n, &dev);
            let mut cfg = conv.ours_config();
            cfg.yield_strategy = strat;
            points.push((conv, cfg));
        }
    }
    let mut tflops_it = mainloop_sweep("fig7", points).into_iter();

    let mut report = Report::from_args("fig7");
    let mut t = Table::new(&["layer", "cuDNN", "NVCC", "Natural"]);
    let mut sums = [0.0f64; 3];
    for (layer, n) in configs() {
        let mut row = vec![label(&layer, n)];
        for (i, (name, _)) in strategies.iter().enumerate() {
            let tflops = tflops_it.next().unwrap();
            sums[i] += tflops;
            row.push(format!("{tflops:.2}"));
            report.add(
                dev.name,
                &[
                    ("layer", layer.name.into()),
                    ("n", n.into()),
                    ("yield", (*name).into()),
                ],
                &[("mainloop_tflops", tflops.into())],
            );
        }
        t.row(row);
    }
    t.print();
    println!(
        "\nNatural/cuDNN = {:.3}x, Natural/NVCC = {:.3}x",
        sums[2] / sums[0],
        sums[2] / sums[1]
    );

    if bench::metrics::wanted() {
        let mut points = Vec::new();
        let mut cfgs = Vec::new();
        for (layer, n) in configs() {
            for (name, strat) in strategies {
                let conv = conv_for(&layer, n, &dev);
                let mut cfg = conv.ours_config();
                cfg.yield_strategy = strat;
                points.push((conv, cfg));
                cfgs.push((layer.name, n, name));
            }
        }
        bench::metrics::add_mainloop_metrics_records(&mut report, "fig7-metrics", points, |i| {
            let (layer, n, strat) = cfgs[i];
            (
                dev.name.to_string(),
                vec![
                    ("layer", layer.into()),
                    ("n", n.into()),
                    ("yield", strat.into()),
                ],
            )
        });
    }
    report.finish();
}

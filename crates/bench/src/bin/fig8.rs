//! Figure 8: main-loop throughput under different LDG scheduling strategies
//! (RTX 2070). Paper: LDG8 (one LDG per 8 FFMAs) beats cuDNN's LDG2 by up
//! to 1.24×.

use bench::report::{check_args, Report, REPORT_FLAGS, SWEEP_FLAGS};
use bench::{configs, conv_for, label, mainloop_sweep, Table};
use gpusim::DeviceSpec;
use kernels::LdgStrategy;

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
    for (layer, n) in configs() {
        for (_, strat) in strategies {
            let conv = conv_for(&layer, n, &dev);
            let mut cfg = conv.ours_config();
            cfg.ldg = strat;
            points.push((conv, cfg));
        }
    }
    let mut tflops_it = mainloop_sweep("fig8", points).into_iter();

    let mut report = Report::from_args("fig8");
    let mut t = Table::new(&["layer", "LDG2", "LDG4", "LDG8"]);
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
                    ("ldg", (*name).into()),
                ],
                &[("mainloop_tflops", tflops.into())],
            );
        }
        t.row(row);
    }
    t.print();
    println!("\nLDG8/LDG2 = {:.3}x", sums[2] / sums[0]);

    if bench::metrics::wanted() {
        let mut points = Vec::new();
        let mut cfgs = Vec::new();
        for (layer, n) in configs() {
            for (name, strat) in strategies {
                let conv = conv_for(&layer, n, &dev);
                let mut cfg = conv.ours_config();
                cfg.ldg = strat;
                points.push((conv, cfg));
                cfgs.push((layer.name, n, name));
            }
        }
        bench::metrics::add_mainloop_metrics_records(&mut report, "fig8-metrics", points, |i| {
            let (layer, n, strat) = cfgs[i];
            (
                dev.name.to_string(),
                vec![
                    ("layer", layer.into()),
                    ("n", n.into()),
                    ("ldg", strat.into()),
                ],
            )
        });
    }
    report.finish();
}

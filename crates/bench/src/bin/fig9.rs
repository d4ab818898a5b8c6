//! Figure 9: main-loop throughput under different STS scheduling strategies
//! (RTX 2070). Paper: STS6 is ~2% over STS2.

use bench::report::{check_args, Report, REPORT_FLAGS, SWEEP_FLAGS};
use bench::{configs, conv_for, label, mainloop_sweep, Table};
use gpusim::DeviceSpec;
use kernels::StsStrategy;

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
    for (layer, n) in configs() {
        for (_, strat) in strategies {
            let conv = conv_for(&layer, n, &dev);
            let mut cfg = conv.ours_config();
            cfg.sts = strat;
            points.push((conv, cfg));
        }
    }
    let mut tflops_it = mainloop_sweep("fig9", points).into_iter();

    let mut report = Report::from_args("fig9");
    let mut t = Table::new(&["layer", "STS2", "STS4", "STS6"]);
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
                    ("sts", (*name).into()),
                ],
                &[("mainloop_tflops", tflops.into())],
            );
        }
        t.row(row);
    }
    t.print();
    println!("\nSTS6/STS2 = {:.3}x", sums[2] / sums[0]);

    if bench::metrics::wanted() {
        let mut points = Vec::new();
        let mut cfgs = Vec::new();
        for (layer, n) in configs() {
            for (name, strat) in strategies {
                let conv = conv_for(&layer, n, &dev);
                let mut cfg = conv.ours_config();
                cfg.sts = strat;
                points.push((conv, cfg));
                cfgs.push((layer.name, n, name));
            }
        }
        bench::metrics::add_mainloop_metrics_records(&mut report, "fig9-metrics", points, |i| {
            let (layer, n, strat) = cfgs[i];
            (
                dev.name.to_string(),
                vec![
                    ("layer", layer.into()),
                    ("n", n.into()),
                    ("sts", strat.into()),
                ],
            )
        });
    }
    report.finish();
}

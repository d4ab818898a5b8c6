//! Figure 10: Speed-of-Light (FP32-pipe utilization) on RTX 2070, whole
//! kernel ("Total") and main loop. Paper: main loop 87.5-93%, total ≥ ~80%.

use bench::report::{check_args, Report, REPORT_FLAGS, SWEEP_FLAGS};
use bench::{configs, label, time_sweep, Table};
use gpusim::DeviceSpec;
use wino_core::{Algo, Conv};

fn main() {
    check_args("fig10", &[REPORT_FLAGS, SWEEP_FLAGS]);
    run(DeviceSpec::rtx2070(), "Figure 10", "RTX 2070", "fig10");
}

pub fn run(dev: DeviceSpec, fig: &str, name: &str, experiment: &str) {
    println!("{fig}: Speed of Light (simulated {name})");
    println!("Paper: main loop up to ~93%, total above ~80% for large batch\n");
    let points = configs()
        .into_iter()
        .map(|(layer, n)| (Conv::new(layer.problem(n), dev.clone()), Algo::OursFused))
        .collect();
    let mut timings = time_sweep(experiment, points).into_iter();

    let mut report = Report::from_args(experiment);
    let mut t = Table::new(&["layer", "Total %", "Main loop %"]);
    for (layer, n) in configs() {
        let timing = timings.next().unwrap();
        let k = timing.kernel.expect("fused kernel timing");
        t.row(vec![
            label(&layer, n),
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

    if bench::metrics::wanted() {
        let points = configs()
            .into_iter()
            .map(|(layer, n)| (Conv::new(layer.problem(n), dev.clone()), Algo::OursFused))
            .collect();
        let cfgs = configs();
        bench::metrics::add_conv_metrics_records(
            &mut report,
            &format!("{experiment}-metrics"),
            points,
            |i, a| {
                let (layer, n) = &cfgs[i];
                (
                    dev.name.to_string(),
                    vec![
                        ("layer", layer.name.into()),
                        ("n", (*n).into()),
                        ("algo", a.name().into()),
                    ],
                )
            },
        );
    }
    report.finish();
}

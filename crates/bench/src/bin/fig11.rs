//! Figure 11: Speed-of-Light on V100 (see fig10).

use bench::report::{check_args, Report, REPORT_FLAGS, SWEEP_FLAGS};
use bench::{configs, label, time_sweep, Table};
use gpusim::DeviceSpec;
use wino_core::{Algo, Conv};

fn main() {
    check_args("fig11", &[REPORT_FLAGS, SWEEP_FLAGS]);
    let dev = DeviceSpec::v100();
    println!("Figure 11: Speed of Light (simulated V100)");
    println!("Paper: main loop up to ~93%, total ~75-95%\n");
    let points = configs()
        .into_iter()
        .map(|(layer, n)| (Conv::new(layer.problem(n), dev.clone()), Algo::OursFused))
        .collect();
    let mut timings = time_sweep("fig11", points).into_iter();

    let mut report = Report::from_args("fig11");
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
        bench::metrics::add_conv_metrics_records(&mut report, "fig11-metrics", points, |i, a| {
            let (layer, n) = &cfgs[i];
            (
                dev.name.to_string(),
                vec![
                    ("layer", layer.name.into()),
                    ("n", (*n).into()),
                    ("algo", a.name().into()),
                ],
            )
        });
    }
    report.finish();
}

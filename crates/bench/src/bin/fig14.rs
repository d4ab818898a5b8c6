//! Figure 14: workspace (MB) required by each algorithm.
//! Paper highlights: ours needs 0.25-16 MB (transformed filter only); FFT
//! variants need hundreds of MB to > 1.6 GB on Conv5.

use bench::report::{check_args, Report, REPORT_FLAGS, SWEEP_FLAGS};
use bench::{configs, label, Table};
use gpusim::DeviceSpec;
use wino_core::{Algo, Conv};

fn main() {
    check_args("fig14", &[REPORT_FLAGS, SWEEP_FLAGS]);
    println!("Figure 14: workspace (MB) per algorithm\n");
    let algos = [
        Algo::Fft,
        Algo::FftTiling,
        Algo::Gemm,
        Algo::ImplicitGemm,
        Algo::ImplicitPrecompGemm,
        Algo::WinogradNonfused,
        Algo::OursFused,
    ];
    let mut report = Report::from_args("fig14");
    let mut headers = vec!["layer"];
    for a in &algos {
        headers.push(a.name());
    }
    let mut t = Table::new(&headers);
    for (layer, n) in configs() {
        let conv = Conv::new(layer.problem(n), DeviceSpec::v100());
        let mut row = vec![label(&layer, n)];
        for a in algos {
            let mb = conv.workspace_bytes(a) as f64 / 1e6;
            row.push(format!("{mb:.1}"));
            report.add(
                "V100",
                &[
                    ("layer", layer.name.into()),
                    ("n", n.into()),
                    ("algo", a.name().into()),
                ],
                &[("workspace_mb", mb.into())],
            );
        }
        t.row(row);
    }
    t.print();

    // `--metrics`: counter-based classification of our kernel per config
    // (the other columns are workspace formulas with no simulated kernel).
    if bench::metrics::wanted() {
        let points = configs()
            .into_iter()
            .map(|(layer, n)| {
                (
                    Conv::new(layer.problem(n), DeviceSpec::v100()),
                    Algo::OursFused,
                )
            })
            .collect();
        let cfgs = configs();
        bench::metrics::add_conv_metrics_records(&mut report, "fig14-metrics", points, |i, a| {
            let (layer, n) = &cfgs[i];
            (
                "V100".to_string(),
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

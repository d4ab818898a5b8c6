//! Figure 14: workspace (MB) required by each algorithm.
//! Paper highlights: ours needs 0.25-16 MB (transformed filter only); FFT
//! variants need hundreds of MB to > 1.6 GB on Conv5.

use bench::report::{check_args, Report, REPORT_FLAGS, SWEEP_FLAGS};
use bench::{Point, Table};
use gpusim::DeviceSpec;
use wino_core::resnet::eval_grid;
use wino_core::Algo;

fn main() {
    check_args("fig14", &[REPORT_FLAGS, SWEEP_FLAGS]);
    println!("Figure 14: workspace (MB) per algorithm\n");
    let dev = DeviceSpec::v100();
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
    let mut ours = Vec::new();
    for (layer, n) in eval_grid() {
        let mut row = vec![layer.label(n)];
        for algo in algos {
            let p = Point::layer(&layer, n, &dev, algo);
            let mb = p.conv.workspace_bytes(algo) as f64 / 1e6;
            row.push(format!("{mb:.1}"));
            report.add(dev.name, &p.config, &[("workspace_mb", mb.into())]);
            if algo == Algo::OursFused {
                ours.push(p);
            }
        }
        t.row(row);
    }
    t.print();

    // `--metrics`: counter-based classification of our kernel per config
    // (the other columns are workspace formulas with no simulated kernel).
    if report.counted().is_some() {
        report.measure(&ours);
    }
    report.finish();
}

//! Figure 12: speedup of our kernel over every other cuDNN algorithm on
//! RTX 2070. Paper highlights: ≥1.56× over everything on Conv2; faster than
//! all but WINOGRAD_NONFUSED on Conv5 (where F(4×4)'s 4× reduction wins).

use bench::report::{check_args, Report, REPORT_FLAGS, SWEEP_FLAGS};
use bench::{x, Point, Table};
use gpusim::DeviceSpec;
use wino_core::resnet::eval_grid;
use wino_core::Algo;

fn main() {
    run(DeviceSpec::rtx2070(), "Figure 12", "fig12");
}

#[allow(dead_code)] // `main` above is unused when included from fig13.rs
pub fn run(dev: DeviceSpec, fig: &str, experiment: &str) {
    check_args(experiment, &[REPORT_FLAGS, SWEEP_FLAGS]);
    println!(
        "{fig}: speedup of ours over all other algorithms (simulated {})\n",
        dev.name
    );
    let algos = [
        Algo::Fft,
        Algo::FftTiling,
        Algo::Gemm,
        Algo::ImplicitGemm,
        Algo::ImplicitPrecompGemm,
        Algo::WinogradNonfused,
    ];
    let mut points = Vec::new();
    for (layer, n) in eval_grid() {
        for algo in std::iter::once(Algo::OursFused).chain(algos) {
            points.push(Point::layer(&layer, n, &dev, algo));
        }
    }
    let mut report = Report::from_args(experiment);
    let timings = report.measure(&points);
    let mut measured = points.iter().zip(&timings);

    let mut headers = vec!["layer"];
    for a in &algos {
        headers.push(a.name());
    }
    let mut t = Table::new(&headers);
    for (layer, n) in eval_grid() {
        let ours = measured.next().unwrap().1.time_s;
        let mut row = vec![layer.label(n)];
        for _ in algos {
            let (p, timing) = measured.next().unwrap();
            let other = timing.time_s;
            row.push(x(other / ours));
            report.add(
                dev.name,
                &p.config,
                &[
                    ("ours_us", (ours * 1e6).into()),
                    ("other_us", (other * 1e6).into()),
                    ("speedup", (other / ours).into()),
                ],
            );
        }
        t.row(row);
    }
    t.print();
    report.finish();
}

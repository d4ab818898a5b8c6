//! Figure 12: speedup of our kernel over every other cuDNN algorithm on
//! RTX 2070. Paper highlights: ≥1.56× over everything on Conv2; faster than
//! all but WINOGRAD_NONFUSED on Conv5 (where F(4×4)'s 4× reduction wins).

use bench::report::{check_args, Report, REPORT_FLAGS, SWEEP_FLAGS};
use bench::{configs, label, time_sweep, x, Table};
use gpusim::DeviceSpec;
use wino_core::{Algo, Conv};

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
    for (layer, n) in configs() {
        points.push((Conv::new(layer.problem(n), dev.clone()), Algo::OursFused));
        for a in algos {
            points.push((Conv::new(layer.problem(n), dev.clone()), a));
        }
    }
    let mut timings = time_sweep(experiment, points).into_iter();

    let mut report = Report::from_args(experiment);
    let mut headers = vec!["layer"];
    for a in &algos {
        headers.push(a.name());
    }
    let mut t = Table::new(&headers);
    for (layer, n) in configs() {
        let ours = timings.next().unwrap().time_s;
        let mut row = vec![label(&layer, n)];
        for a in algos {
            let other = timings.next().unwrap().time_s;
            row.push(x(other / ours));
            report.add(
                dev.name,
                &[
                    ("layer", layer.name.into()),
                    ("n", n.into()),
                    ("algo", a.name().into()),
                ],
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

    // FFT points drop out inside the sweep (analytic model, no kernel).
    if bench::metrics::wanted() {
        let mut points = Vec::new();
        let mut cfgs = Vec::new();
        for (layer, n) in configs() {
            for a in std::iter::once(Algo::OursFused).chain(algos) {
                points.push((Conv::new(layer.problem(n), dev.clone()), a));
                cfgs.push((layer.name, n));
            }
        }
        bench::metrics::add_conv_metrics_records(
            &mut report,
            &format!("{experiment}-metrics"),
            points,
            |i, a| {
                let (layer, n) = cfgs[i];
                (
                    dev.name.to_string(),
                    vec![
                        ("layer", layer.into()),
                        ("n", n.into()),
                        ("algo", a.name().into()),
                    ],
                )
            },
        );
    }
    report.finish();
}

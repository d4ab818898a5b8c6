//! Table 2: speedup of cuDNN's Winograd convolution over cuDNN's GEMM-based
//! convolution on V100 — the motivation measurement (§2.2).
//!
//! Paper values: 0.81×–1.67×, average 1.4× — far below the theoretical
//! 2.25× multiplication reduction.

use bench::report::{check_args, Report, REPORT_FLAGS, SWEEP_FLAGS};
use bench::{x, Point, Table};
use gpusim::DeviceSpec;
use wino_core::resnet::{BATCH_SIZES, RESNET_LAYERS};
use wino_core::Algo;

fn main() {
    check_args("table2", &[REPORT_FLAGS, SWEEP_FLAGS]);
    println!("Table 2: cuDNN-like Winograd vs GEMM-based convolution (simulated V100)");
    println!("Paper: 0.81x-1.67x, average 1.4x\n");
    let dev = DeviceSpec::v100();
    let mut points = Vec::new();
    for n in BATCH_SIZES {
        for layer in RESNET_LAYERS {
            for algo in [Algo::CudnnWinograd, Algo::ImplicitPrecompGemm] {
                points.push(Point::layer(&layer, n, &dev, algo));
            }
        }
    }
    let mut report = Report::from_args("table2");
    let mut timings = report.measure(&points).into_iter();

    let mut t = Table::new(&["N", "Conv2", "Conv3", "Conv4", "Conv5"]);
    let mut all = Vec::new();
    for n in BATCH_SIZES {
        let mut row = vec![n.to_string()];
        for layer in RESNET_LAYERS {
            let wino = timings.next().unwrap().time_s;
            let gemm = timings.next().unwrap().time_s;
            let sp = gemm / wino;
            all.push(sp);
            row.push(x(sp));
            report.add(
                dev.name,
                &[("layer", layer.name.into()), ("n", n.into())],
                &[
                    ("winograd_us", (wino * 1e6).into()),
                    ("gemm_us", (gemm * 1e6).into()),
                    ("speedup", sp.into()),
                ],
            );
        }
        t.row(row);
    }
    t.print();
    let avg = bench::mean(&all);
    println!("\naverage speedup: {}", x(avg));
    report.add(
        dev.name,
        &[("aggregate", "average".into())],
        &[("speedup", avg.into())],
    );
    report.finish();
}

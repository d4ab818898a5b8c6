//! Table 6: speedup of our Winograd convolution over the cuDNN-like fused
//! Winograd convolution, on RTX 2070 and V100.
//!
//! Paper: RTX2070 up to 2.65× (avg 1.95×); V100 up to 2.13× (avg 1.5×);
//! Conv5 speedups are the largest (bk=64 halves input overfetch, §7.1), and
//! RTX2070 speedups exceed V100's (cuDNN gets 2 blocks/SM on V100 only).

use bench::report::{check_args, Report, REPORT_FLAGS, SWEEP_FLAGS};
use bench::{x, Point, Table};
use gpusim::DeviceSpec;
use wino_core::resnet::{BATCH_SIZES, RESNET_LAYERS};
use wino_core::Algo;

fn main() {
    check_args("table6", &[REPORT_FLAGS, SWEEP_FLAGS]);
    println!("Table 6: speedup over the cuDNN-like fused Winograd convolution");
    println!("Paper: RTX2070 1.65x-2.65x (avg 1.95x); V100 1.23x-2.13x (avg 1.5x)\n");
    let devices = [DeviceSpec::rtx2070(), DeviceSpec::v100()];
    let mut points = Vec::new();
    for dev in &devices {
        for n in BATCH_SIZES {
            for layer in RESNET_LAYERS {
                for algo in [Algo::OursFused, Algo::CudnnWinograd] {
                    points.push(Point::layer(&layer, n, dev, algo));
                }
            }
        }
    }
    let mut report = Report::from_args("table6");
    let mut timings = report.measure(&points).into_iter();
    for dev in devices {
        println!("{}:", dev.name);
        let mut t = Table::new(&["N", "Conv2", "Conv3", "Conv4", "Conv5"]);
        let mut all = Vec::new();
        for n in BATCH_SIZES {
            let mut row = vec![n.to_string()];
            for layer in RESNET_LAYERS {
                let ours = timings.next().unwrap().time_s;
                let cudnn = timings.next().unwrap().time_s;
                let sp = cudnn / ours;
                all.push(sp);
                row.push(x(sp));
                report.add(
                    dev.name,
                    &[("layer", layer.name.into()), ("n", n.into())],
                    &[
                        ("ours_us", (ours * 1e6).into()),
                        ("cudnn_us", (cudnn * 1e6).into()),
                        ("speedup", sp.into()),
                    ],
                );
            }
            t.row(row);
        }
        t.print();
        let avg = bench::mean(&all);
        println!("average: {}\n", x(avg));
        report.add(
            dev.name,
            &[("aggregate", "average".into())],
            &[("speedup", avg.into())],
        );
    }
    report.finish();
}

//! §8.1: the fused-F(2×2) vs non-fused-F(4×4) break-even analysis.
//! Paper: crossover at K = 129 (V100) and K = 127 (RTX 2070).

use bench::metrics::analytic_metrics;
use bench::report::{check_args, Report, REPORT_FLAGS};
use gpusim::DeviceSpec;
use perfmodel::roofline::gemm_intensity;
use perfmodel::{break_even_k, fused_f2_time, nonfused_f4_time};

const KS: [u32; 4] = [64, 128, 256, 512];

fn main() {
    check_args("breakeven", &[REPORT_FLAGS]);
    println!("Section 8.1: fused F(2x2,3x3) vs non-fused F(4x4,3x3) break-even\n");
    let devices = [DeviceSpec::v100(), DeviceSpec::rtx2070()];
    let mut report = Report::from_args("breakeven");
    for dev in devices {
        let k = break_even_k(&dev);
        println!(
            "{:8}: break-even K = {:.0}  (paper: {})",
            dev.name,
            k,
            if dev.name == "V100" { 129 } else { 127 }
        );
        report.add(
            dev.name,
            &[("aggregate", "break_even".into())],
            &[("k", k.into())],
        );
        println!("  K       fused(us)  nonfused(us)  winner");
        for kk in KS {
            let f = fused_f2_time(&dev, 32.0, kk as f64, 28.0, 28.0, kk as f64) * 1e6;
            let nf = nonfused_f4_time(&dev, 32.0, kk as f64, 28.0, 28.0, kk as f64) * 1e6;
            println!(
                "  {:<7} {:>9.1} {:>13.1}  {}",
                kk,
                f,
                nf,
                if f < nf { "fused" } else { "non-fused" }
            );
            report.add(
                dev.name,
                &[("k", kk.into())],
                &[
                    ("fused_us", f.into()),
                    ("nonfused_us", nf.into()),
                    ("winner", if f < nf { "fused" } else { "non-fused" }.into()),
                ],
            );
        }
        println!();

        // `--metrics`: roofline classification of the two contenders' batched
        // GEMM steps — fused F(2x2) runs at bk=64 intensity, the non-fused
        // F(4x4) pipeline at the bk=32 intensity cuDNN ships (§3.3).
        for (kernel, bk) in [("fused_f2", 64.0), ("nonfused_f4", 32.0)] {
            let metrics = analytic_metrics(&dev, gemm_intensity(bk));
            report.add_metrics(dev.name, &[("kernel", kernel.into())], &metrics);
        }
    }
    report.finish();
}

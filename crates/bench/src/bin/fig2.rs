//! Figure 2: roofline model of the Winograd steps on V100.

use bench::metrics::analytic_metrics;
use bench::report::{check_args, Report, REPORT_FLAGS};
use gpusim::DeviceSpec;
use perfmodel::roofline::{
    attainable_tflops, attainable_tflops_vs, direct_conv_intensity, gemm_intensity, l2_bandwidth,
    ridge_intensity, WINOGRAD_STEPS,
};

fn main() {
    check_args("fig2", &[REPORT_FLAGS]);
    let dev = DeviceSpec::v100();
    let mut steps: Vec<(&str, f64)> = WINOGRAD_STEPS
        .iter()
        .map(|p| (p.name, p.intensity))
        .collect();
    steps.extend([
        ("batched GEMM (bk=32)", gemm_intensity(32.0)),
        ("batched GEMM (bk=64)", gemm_intensity(64.0)),
        ("direct conv (bk=64)", direct_conv_intensity(64.0)),
    ]);
    let mut report = Report::from_args("fig2");
    println!(
        "Figure 2: V100 global-memory roofline (peak {:.1} TFLOPS, DRAM {:.0} GB/s, L2 {:.1} TB/s)",
        dev.peak_fp32_flops() / 1e12,
        dev.dram_bw / 1e9,
        l2_bandwidth(&dev) / 1e12
    );
    println!("ridge point: {:.1} ops/byte\n", ridge_intensity(&dev));

    println!(
        "{:<28} {:>10} {:>14} {:>14}",
        "kernel/step", "ops:byte", "DRAM-roof TF", "L2-roof TF"
    );
    for (name, i) in steps {
        let dram_roof = attainable_tflops(&dev, i);
        let l2_roof = attainable_tflops_vs(&dev, i, l2_bandwidth(&dev));
        println!(
            "{:<28} {:>10.3} {:>14.2} {:>14.2}",
            name, i, dram_roof, l2_roof
        );
        report.add(
            dev.name,
            &[("step", name.into())],
            &[
                ("intensity_ops_per_byte", i.into()),
                ("dram_roof_tflops", dram_roof.into()),
                ("l2_roof_tflops", l2_roof.into()),
            ],
        );
        // `--metrics`: classify each step straight off the roofline.
        report.add_metrics(
            dev.name,
            &[("step", name.into())],
            &analytic_metrics(&dev, i),
        );
    }
    println!(
        "\nbk=64 raises the GEMM step's intensity by {:.0}% over bk=32 (paper: +33%)",
        100.0 * (gemm_intensity(64.0) / gemm_intensity(32.0) - 1.0)
    );

    // Roofline curve samples (for replotting).
    println!("\nintensity_ops_per_byte, dram_roof_tflops, l2_roof_tflops");
    let mut i = 0.25;
    while i <= 64.0 {
        println!(
            "{:.3}, {:.3}, {:.3}",
            i,
            attainable_tflops(&dev, i),
            attainable_tflops_vs(&dev, i, l2_bandwidth(&dev))
        );
        i *= 2.0;
    }
    report.finish();
}

//! Table 7: parameters of our implementation vs cuDNN 7.6.1's Winograd,
//! with the §7.1 occupancy consequence on both devices.

use bench::metrics::analytic_metrics;
use bench::report::{check_args, Report, REPORT_FLAGS};
use bench::Table;
use gpusim::DeviceSpec;
use kernels::{FusedConfig, FusedKernel};
use perfmodel::roofline::gemm_intensity;
use perfmodel::{kernel_table, KernelParams};

/// One kernel's cell in a table row.
type Cell = fn(&KernelParams) -> String;

fn main() {
    check_args("table7", &[REPORT_FLAGS]);
    println!("Table 7: kernel parameters\n");
    let devices = [DeviceSpec::v100(), DeviceSpec::rtx2070()];
    let [ours, cudnn] = kernel_table();

    let mut report = Report::from_args("table7");
    let mut t = Table::new(&["Parameters", "Ours", "cuDNN's"]);
    let cells: [(&str, Cell); 5] = [
        ("(bk, bn, bc)", |p| format!("({},{},{})", p.bk, p.bn, p.bc)),
        ("Threads per block", |p| p.threads_per_block.to_string()),
        ("SMEM per block", |p| {
            format!("{}KB", p.smem_per_block / 1024)
        }),
        ("Registers per thread", |p| p.regs_per_thread.to_string()),
        ("Registers per block", |p| p.regs_per_block().to_string()),
    ];
    for (name, cell) in cells {
        t.row(vec![name.into(), cell(&ours), cell(&cudnn)]);
    }
    for dev in &devices {
        let cell = |p: &KernelParams| p.blocks_per_sm(dev).to_string();
        let name = format!("Blocks/SM on {}", dev.name);
        t.row(vec![name, cell(&ours), cell(&cudnn)]);
    }
    t.print();

    for (which, p) in [("ours", &ours), ("cudnn", &cudnn)] {
        for dev in &devices {
            report.add(
                dev.name,
                &[("kernel", which.into())],
                &[
                    ("bk", p.bk.into()),
                    ("bn", p.bn.into()),
                    ("bc", p.bc.into()),
                    ("threads_per_block", p.threads_per_block.into()),
                    ("smem_per_block", p.smem_per_block.into()),
                    ("regs_per_thread", p.regs_per_thread.into()),
                    ("regs_per_block", p.regs_per_block().into()),
                    ("blocks_per_sm", p.blocks_per_sm(dev).into()),
                ],
            );
            // `--metrics`: each kernel's batched-GEMM step classified at the
            // intensity its bk implies (§3.3: bk=64 → 10.67, bk=32 → 8).
            let metrics = analytic_metrics(dev, gemm_intensity(p.bk as f64));
            report.add_metrics(dev.name, &[("kernel", which.into())], &metrics);
        }
    }
    report.finish();

    // Cross-check the emitted kernels against the table.
    let k_ours = FusedKernel::emit(FusedConfig::ours(64, 56, 56, 32, 64));
    let k_cudnn = FusedKernel::emit(FusedConfig::cudnn_like(64, 56, 56, 32, 32));
    println!("\nEmitted kernels: ours uses {} regs/thread ({} B smem), cuDNN-like uses {} regs/thread ({} B smem)",
        k_ours.module.info.num_regs, k_ours.module.info.smem_bytes,
        k_cudnn.module.info.num_regs, k_cudnn.module.info.smem_bytes);
}

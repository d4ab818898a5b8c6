//! Ablations of the design choices DESIGN.md calls out:
//!  * P2R predicate packing vs per-iteration mask recomputation (§3.5);
//!  * cache block size bk=64 vs bk=32 with everything else equal (§3.3);
//!  * yield/LDG/STS strategy deltas on V100 (complementing Figs. 7-9).

use bench::report::{check_args, Report, REPORT_FLAGS, SWEEP_FLAGS};
use bench::{Point, Table};
use gpusim::DeviceSpec;
use kernels::{LdgStrategy, StsStrategy, YieldStrategy};
use wino_core::{Conv, ConvProblem, Target};

fn main() {
    check_args("ablation", &[REPORT_FLAGS, SWEEP_FLAGS]);
    let dev = DeviceSpec::rtx2070();
    println!(
        "Ablation study (simulated {}, Conv3N64: C=K=128, 28x28, N=64)\n",
        dev.name
    );
    let p = ConvProblem::resnet3x3(64, 128, 28, 128);
    let conv = Conv::new(p, dev.clone());

    let base = conv.ours_config();
    let mut v_no_p2r = base;
    v_no_p2r.use_p2r = false;
    let mut v_bk32 = base;
    v_bk32.bk = 32;
    v_bk32.filter_ldg = kernels::FilterLdgWidth::W32;
    v_bk32.pipeline_depth = 1;
    v_bk32.smem_override = Some(48 * 1024);
    let mut v_yield = base;
    v_yield.yield_strategy = YieldStrategy::Cudnn;
    let mut v_ldg2 = base;
    v_ldg2.ldg = LdgStrategy::Ldg2;
    let mut v_sts2 = base;
    v_sts2.sts = StsStrategy::Sts2;
    // §8.4 port: same kernel, NCHW input partitioning — quantifies what
    // the §4.2 CHWN layout choice buys.
    let v_nchw = kernels::FusedConfig::ours_nchw(128, 28, 28, 64, 128);
    // §8.3 fp16 port: bn = 64, half2 arithmetic — two element-FLOPs per
    // lane-instruction on the same FP32 pipe.
    let v_fp16 = kernels::FusedConfig::ours_fp16(128, 28, 28, 128, 128);
    let variants = [
        ("base (bk=64, P2R, Natural, LDG8, STS6)", "base", base),
        ("no P2R (recompute masks in loop)", "no_p2r", v_no_p2r),
        ("bk=32 (halved cache block)", "bk32", v_bk32),
        ("yield every 7 (cuDNN)", "yield_cudnn", v_yield),
        ("LDG2", "ldg2", v_ldg2),
        ("STS2", "sts2", v_sts2),
        ("NCHW input port (§8.4)", "nchw_port", v_nchw),
        ("fp16 port, bn=64 (§8.3)", "fp16_port", v_fp16),
    ];
    let points: Vec<Point> = variants
        .iter()
        .map(|&(_, key, cfg)| Point {
            conv: conv.clone(),
            target: Target::mainloop(cfg),
            config: vec![
                ("layer", "Conv3".into()),
                ("n", 64usize.into()),
                ("variant", key.into()),
            ],
        })
        .collect();
    let mut report = Report::from_args("ablation");
    let timings = report.measure(&points);
    let tflops: Vec<f64> = points
        .iter()
        .zip(&timings)
        .map(|(p, t)| p.mainloop_tflops(t).expect("main loop simulates"))
        .collect();

    let mut t = Table::new(&["variant", "main-loop TFLOPS", "vs base"]);
    let base_tf = tflops[0];
    for (((title, _, _), p), tf) in variants.iter().zip(&points).zip(tflops) {
        t.row(vec![
            title.to_string(),
            format!("{tf:.2}"),
            format!("{:.3}x", tf / base_tf),
        ]);
        report.add(
            dev.name,
            &p.config,
            &[
                ("mainloop_tflops", tf.into()),
                ("vs_base", (tf / base_tf).into()),
            ],
        );
    }
    t.print();
    report.finish();
}

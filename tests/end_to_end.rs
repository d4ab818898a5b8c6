//! Cross-crate integration: every algorithm in the public API produces the
//! direct-convolution result, workspace queries are consistent, and the
//! timing pipeline runs end to end, as do the `yield_tuning` and
//! `resnet_sweep` examples.

use winograd_gpu::gpusim::DeviceSpec;
use winograd_gpu::tensor::{allclose, LayoutKind, Tensor4};
use winograd_gpu::wino_core::{conv2d_direct, Algo, Conv, ConvProblem};

#[path = "../examples/resnet_sweep.rs"]
mod resnet_sweep;
#[path = "../examples/yield_tuning.rs"]
mod yield_tuning;

fn fixture(p: &ConvProblem) -> (Tensor4, Tensor4, Tensor4) {
    let input = Tensor4::random(LayoutKind::Nchw, [p.n, p.c, p.h, p.w], -1.0, 1.0, 11);
    let filter = Tensor4::random(LayoutKind::Kcrs, [p.k, p.c, 3, 3], -1.0, 1.0, 12);
    let reference = conv2d_direct(p, &input, &filter);
    (input, filter, reference)
}

#[test]
fn every_algorithm_matches_direct() {
    let p = ConvProblem::resnet3x3(32, 8, 8, 64);
    let (input, filter, reference) = fixture(&p);
    let conv = Conv::new(p, DeviceSpec::v100());
    for algo in Algo::ALL {
        let got = conv.run(algo, &input, &filter);
        assert!(
            allclose(reference.as_slice(), got.output.as_slice(), 5e-3, 5e-3),
            "{} diverged from the direct reference",
            algo.name()
        );
    }
}

#[test]
fn both_devices_agree_functionally() {
    // The simulated device changes timing, never results.
    let p = ConvProblem::resnet3x3(32, 8, 7, 64);
    let (input, filter, _) = fixture(&p);
    let a = Conv::new(p, DeviceSpec::v100()).run(Algo::OursFused, &input, &filter);
    let b = Conv::new(p, DeviceSpec::rtx2070()).run(Algo::OursFused, &input, &filter);
    assert_eq!(a.output.as_slice(), b.output.as_slice());
}

#[test]
fn timing_pipeline_reports_consistent_metrics() {
    let p = ConvProblem::resnet3x3(32, 128, 14, 128);
    let conv = Conv::new(p, DeviceSpec::rtx2070());
    let t = conv.time(Algo::OursFused);
    // Phases sum to the total.
    let sum: f64 = t.phases.iter().map(|(_, s)| s).sum();
    assert!((sum - t.time_s).abs() < 1e-12);
    // Effective TFLOPS below device peak and above zero.
    assert!(t.tflops_effective > 0.0);
    let k = t.kernel.expect("kernel timing present");
    assert!(k.sol_pct > 10.0 && k.sol_pct <= 100.0, "SOL {}", k.sol_pct);
    assert!(
        k.sol_total_pct <= k.sol_pct + 1.0,
        "total {} vs main {}",
        k.sol_total_pct,
        k.sol_pct
    );
    assert!(k.wave_cycles > 0 && k.waves >= 1);
}

#[test]
fn fused_winograd_beats_gemm_and_cudnn_like() {
    // The headline claims (Tables 2 and 6) on one mid-size layer per device.
    let p = ConvProblem::resnet3x3(32, 128, 28, 128);
    for dev in [DeviceSpec::rtx2070(), DeviceSpec::v100()] {
        let conv = Conv::new(p, dev.clone());
        let ours = conv.time(Algo::OursFused).time_s;
        let cudnn = conv.time(Algo::CudnnWinograd).time_s;
        let gemm = conv.time(Algo::ImplicitPrecompGemm).time_s;
        assert!(
            ours < cudnn,
            "{}: ours {} vs cudnn {}",
            dev.name,
            ours,
            cudnn
        );
        assert!(ours < gemm, "{}: ours {} vs gemm {}", dev.name, ours, gemm);
        // §7.1: the speedup over cuDNN is larger on Turing than on Volta.
        if dev.name == "RTX2070" {
            assert!(cudnn / ours > 1.3, "{}: ratio {}", dev.name, cudnn / ours);
        }
    }
}

#[test]
fn workspace_hierarchy_matches_fig14() {
    let p = ConvProblem::resnet3x3(32, 512, 7, 512); // Conv5N32
    let conv = Conv::new(p, DeviceSpec::v100());
    let ours = conv.workspace_bytes(Algo::OursFused);
    // §7.3: 16 MB transformed filter for Conv5.
    assert_eq!(ours, 16 * 512 * 512 * 4);
    // Fig. 14 ordering for Conv5N32: FFT_TILING > FFT > OURS-sized entries.
    let fft = conv.workspace_bytes(Algo::Fft);
    let fft_tiling = conv.workspace_bytes(Algo::FftTiling);
    assert!(fft_tiling > fft, "tiling {fft_tiling} vs fft {fft}");
    assert!(fft > ours);
    assert_eq!(conv.workspace_bytes(Algo::ImplicitGemm), 0);
}

#[test]
fn conv5_prefers_nonfused_winograd() {
    // Fig. 12/13 observation 6: on Conv5, WINOGRAD_NONFUSED (F(4×4)) beats
    // the fused F(2×2) kernels; on Conv2 it does not.
    let dev = DeviceSpec::rtx2070();
    let conv5 = Conv::new(ConvProblem::resnet3x3(64, 512, 7, 512), dev.clone());
    let ours5 = conv5.time(Algo::OursFused).time_s;
    let nf5 = conv5.time(Algo::WinogradNonfused).time_s;
    assert!(
        nf5 < ours5 * 1.25,
        "Conv5: non-fused {nf5} should rival fused {ours5}"
    );
    let conv2 = Conv::new(ConvProblem::resnet3x3(32, 64, 56, 64), dev);
    let ours2 = conv2.time(Algo::OursFused).time_s;
    let nf2 = conv2.time(Algo::WinogradNonfused).time_s;
    assert!(
        ours2 < nf2,
        "Conv2: fused {ours2} should beat non-fused {nf2}"
    );
}

/// The `yield_tuning` example (a one-layer Figure 7) runs in a fraction of
/// a second, so it runs here rather than in `ci.sh`'s examples stage.
#[test]
fn yield_tuning_example_runs() {
    yield_tuning::main();
}

/// The `resnet_sweep` example (OURS against the cuDNN-like kernel on every
/// Table 1 layer, both devices) takes seconds, so it runs here rather than
/// in `ci.sh`'s examples stage.
#[test]
fn resnet_sweep_example_runs() {
    resnet_sweep::main();
}

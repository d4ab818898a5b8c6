//! Hardware-counter expectations for the generated fused Winograd kernels:
//! the §4/§5 design claims, checked on the counters instead of end timing.

use gpusim::{DeviceSpec, Gpu, HwCounters, Model, TimingOptions};
use kernels::filter_transform::{self, emit_filter_transform};
use kernels::{FusedConfig, FusedKernel};

fn count(cfg: FusedConfig) -> HwCounters {
    let (c, h, w, n, k) = (
        cfg.c as usize,
        cfg.h as usize,
        cfg.w as usize,
        cfg.n as usize,
        cfg.k as usize,
    );
    let mut gpu = Gpu::new(DeviceSpec::v100(), 1 << 28);
    let d_in = gpu.alloc((c * h * w * n) as u64 * 4);
    let d_filt = gpu.alloc((c * 9 * k) as u64 * 4);
    let d_tf = gpu.alloc((c * 16 * k) as u64 * 4);
    let d_out = gpu.alloc((k * h * w * n) as u64 * 4);

    let fx = emit_filter_transform(cfg.c, cfg.k);
    let fx_dims = filter_transform::launch_dims(cfg.c, cfg.k);
    gpu.launch(&fx, fx_dims, &filter_transform::params(d_filt, d_tf))
        .expect("filter transform");

    let kern = FusedKernel::emit(cfg);
    let params = kern.params(d_in, d_tf, d_out);
    let t = gpusim::simulate(
        &mut gpu,
        &kern.module,
        kern.launch_dims(),
        &params,
        Model::OneWave,
        TimingOptions {
            counters: true,
            ..Default::default()
        },
    )
    .expect("counted fused kernel")
    .0;
    let c = t.counters.expect("counters requested");
    c.validate().expect("fused kernel counters reconcile");
    c
}

#[test]
fn ours_counters_match_the_design_claims() {
    let c = count(FusedConfig::ours(32, 12, 12, 32, 64));
    // §4.3/§5: the main loop leans on wide 128-bit LDS.
    assert!(
        c.smem_accesses_by_width[2] > 0,
        "main loop reads smem with LDS.128"
    );
    // §5.2.2: the FFMA operand allocation is register-bank clean.
    assert_eq!(c.reg_bank_conflicts, 0, "ours FFMAs are bank-clean");
    // §5.2: the FFMA operand schedule exploits the reuse cache.
    assert!(
        c.reuse_hits.iter().sum::<u64>() > 0,
        "register reuse cache must see hits"
    );
    // The main loop is FP32 work: the FP pipe dominates issue traffic.
    assert!(
        c.issued_by_pipe[0] > c.issued / 2,
        "FP32 pipe issues must dominate: {:?} of {}",
        c.issued_by_pipe,
        c.issued
    );
    // The kernel reads inputs/filters through L2: real memory footprint.
    assert!(c.global_sectors > 0 && c.dram_read_bytes > 0);
}

#[test]
fn ours_beats_cudnn_like_on_the_counters() {
    let ours = count(FusedConfig::ours(32, 12, 12, 32, 64));
    let cudnn = count(FusedConfig::cudnn_like(32, 12, 12, 32, 64));
    // §5.2.2: our operand allocation eliminates the register-bank conflicts
    // the cuDNN-style schedule pays for on every other FFMA group.
    assert_eq!(ours.reg_bank_conflicts, 0, "ours FFMAs are bank-clean");
    assert!(
        cudnn.reg_bank_conflicts > 0,
        "cudnn-like schedule pays reg-bank conflicts"
    );
    // §4.3: 128-bit shared loads mean fewer LDS instructions and fewer MIO
    // phases for the same bytes.
    assert!(
        ours.smem_accesses < cudnn.smem_accesses,
        "wide LDS: {} vs {}",
        ours.smem_accesses,
        cudnn.smem_accesses
    );
    assert!(
        ours.smem_phases < cudnn.smem_phases,
        "smem phase totals: {} vs {}",
        ours.smem_phases,
        cudnn.smem_phases
    );
    // §3.3: bk=64 halves the input overfetch of bk=32 — ours moves fewer
    // DRAM bytes per resident wave for the same tile work.
    let ours_dram = ours.dram_read_bytes + ours.dram_write_bytes;
    let cudnn_dram = cudnn.dram_read_bytes + cudnn.dram_write_bytes;
    assert!(
        ours_dram < cudnn_dram,
        "ours {ours_dram} B vs cudnn-like {cudnn_dram} B"
    );
    // Net effect: fewer instructions issued for the same convolution.
    assert!(ours.issued < cudnn.issued);
}

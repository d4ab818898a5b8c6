//! Micro-benchmarks of the simulator itself: functional execution throughput
//! and the cycle-level timing model.

use bench::harness::Harness;
use gpusim::{DeviceSpec, Gpu, LaunchDims, Model, ParamBuilder, TimingOptions};
use kernels::{FusedConfig, FusedKernel};

fn functional_block_throughput(h: &Harness) {
    // One block of the fused kernel, C=32: ~45k simulated warp-instructions.
    let cfg = FusedConfig::ours(32, 4, 4, 32, 64);
    let kern = FusedKernel::emit(cfg);
    let insts_per_launch = 4u64 * 8 * 6000; // rough, for ops/sec display
    h.bench(
        "functional_simulation/fused_block_c32",
        Some(insts_per_launch),
        || {
            let (mut gpu, d) = kern.buffers().alloc(DeviceSpec::v100());
            let params = kern.params(d[0], d[1], d[2]);
            gpu.launch(&kern.module, kern.launch_dims(), &params)
                .unwrap();
            gpu
        },
    );
}

fn timing_model_wave(h: &Harness) {
    let mut cfg = FusedConfig::ours(64, 28, 28, 32, 64);
    cfg.main_loop_only = true;
    let kern = FusedKernel::emit(cfg);
    h.bench("timing_model_one_wave_c64", None, || {
        let (mut gpu, d) = kern.buffers().alloc(DeviceSpec::rtx2070());
        let params = kern.params(d[0], d[1], d[2]);
        gpusim::simulate(
            &mut gpu,
            &kern.module,
            kern.launch_dims(),
            &params,
            Model::OneWave,
            TimingOptions {
                region: Some(kern.region),
                ..Default::default()
            },
        )
        .unwrap()
        .0
    });
}

fn block_runner(h: &Harness) {
    // A tight synthetic loop: measures raw interpreter speed.
    let m = sass::assemble(
        r#"
.kernel spin
    --:-:-:Y:1  MOV R1, 0x400;
LOOP:
    --:-:-:Y:1  FFMA R2, R2, R2, R3;
    --:-:-:Y:1  FFMA R4, R4, R4, R5;
    --:-:-:Y:1  IADD3 R1, R1, -1, RZ;
    --:-:-:Y:4  ISETP.GT.AND P0, PT, R1, 0, PT;
    --:-:-:Y:5  @P0 BRA `(LOOP);
    --:-:-:Y:5  EXIT;
"#,
    )
    .unwrap();
    h.bench("interpreter/alu_loop_block", Some(1024 * 5 * 8), || {
        let mut gpu = Gpu::new(DeviceSpec::v100(), 1 << 16);
        gpu.launch(&m, LaunchDims::linear(1, 256), &ParamBuilder::new().build())
            .unwrap();
        gpu
    });
}

fn main() {
    let h = Harness::from_args();
    functional_block_throughput(&h);
    timing_model_wave(&h);
    block_runner(&h);
}

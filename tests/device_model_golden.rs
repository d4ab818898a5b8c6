//! Golden bit-identity contract for the full-device timing model
//! (`Model::Device` and `Model::DeviceExact`).
//!
//! `gpusim/tests/hotloop_identity.rs` pins the one-wave model only. This
//! test pins what the device model adds on top of the shared wave loop: the
//! per-SM L1/L2/backlog carry from wave to wave, the steady-state
//! fast-forward, the two-class SM scaling, the bandwidth-share transition
//! of a partial last wave, and the sharded exact model. Each case runs on a
//! grid chosen to exercise all of that (`assert_shape` checks it), and each
//! line digests the complete `Debug` rendering of the `KernelTiming` (stall
//! profile and hardware counters included) and of the wave trace. Rust's
//! `Debug` for `f64` prints the shortest round-trippable decimal, so two
//! runs digest equal iff they are bit-identical.
//!
//! Regenerate only when an intentional model change lands, with the same
//! switch as gpusim's one-wave golden:
//!
//! ```text
//! HOTLOOP_GOLDEN_REGEN=1 cargo test --test device_model_golden
//! ```

use winograd_gpu::gpusim::{
    self, DeviceSpec, DeviceTrace, Digest, Gpu, KernelTiming, LaunchDims, Model, TimingOptions,
};
use winograd_gpu::kernels::gemm::{GemmConfig, GemmKernel};
use winograd_gpu::kernels::{FusedConfig, FusedKernel};
use winograd_gpu::sass::Module;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/device_model_golden.txt"
);

/// Allocates a case's buffers on a fresh GPU and returns the parameter block.
type ParamFn = Box<dyn Fn(&mut Gpu) -> Vec<u8>>;

/// One kernel launch under test.
struct Case {
    name: String,
    dev: DeviceSpec,
    module: Module,
    dims: LaunchDims,
    region: (u32, u32),
    params: ParamFn,
}

/// The OURS fused kernel on a `tw × th` tile grid (one batch group, one
/// k-block, one main-loop iteration): `tw · th` blocks.
fn fused(dev: DeviceSpec, tw: u32, th: u32) -> Case {
    let (c, h, w, n, k) = (8, 2 * th, 2 * tw, 32, 64);
    let kern = FusedKernel::emit(FusedConfig::ours(c, h, w, n, k));
    Case {
        name: format!("fused_ours_{tw}x{th}"),
        dev,
        module: kern.module.clone(),
        dims: kern.launch_dims(),
        region: kern.region,
        params: Box::new(move |gpu| {
            let input = gpu.alloc((c * h * w * n) as u64 * 4);
            let filter = gpu.alloc((c * 16 * k) as u64 * 4);
            let output = gpu.alloc((k * h * w * n) as u64 * 4);
            kern.params(input, filter, output)
        }),
    }
}

/// A 64×128-tiled GEMM batched `batches` deep: `batches` blocks.
fn gemm(dev: DeviceSpec, batches: u32) -> Case {
    let (m, n, kd) = (64, 128, 16);
    let kern = GemmKernel::emit(GemmConfig::new(m, n, kd).batched(batches));
    let b = batches as u64;
    Case {
        name: format!("gemm_x{batches}"),
        dev,
        module: kern.module.clone(),
        dims: kern.launch_dims(),
        region: kern.region,
        params: Box::new(move |gpu| {
            let a = gpu.alloc(b * (m * kd) as u64 * 4);
            let bm = gpu.alloc(b * (kd * n) as u64 * 4);
            let c = gpu.alloc(b * (m * n) as u64 * 4);
            kern.params(a, bm, c)
        }),
    }
}

/// Simulate `case` on a fresh GPU with the wave trace on.
fn run(case: &Case, model: Model, opts: TimingOptions) -> (KernelTiming, DeviceTrace) {
    let opts = TimingOptions {
        region: Some(case.region),
        trace: true,
        ..opts
    };
    let mut gpu = Gpu::new(case.dev.clone(), 1 << 26);
    let params = (case.params)(&mut gpu);
    let (t, trace) = gpusim::simulate(&mut gpu, &case.module, case.dims, &params, model, opts)
        .expect("timing run failed");
    (t, trace.expect("trace requested"))
}

/// One golden line: the digests of the full timing and trace renderings.
fn line(case: &Case, model: Model, opts: TimingOptions) -> (String, KernelTiming, DeviceTrace) {
    let (t, tr) = run(case, model, opts);
    let digest = |text: String| {
        let mut d = Digest::new();
        d.str(&text);
        d.hex()
    };
    let line = format!(
        "{}/{}/{:?}/j{}/p{}c{} timing={} trace={} wave_cycles={} waves={} time_bits={:016x}",
        case.name,
        case.dev.name,
        model,
        opts.jobs,
        opts.profile as u8,
        opts.counters as u8,
        digest(format!("{t:?}")),
        digest(format!("{tr:?}")),
        t.wave_cycles,
        t.waves,
        t.time_s.to_bits(),
    );
    (line, t, tr)
}

/// The grid has the shape the golden is meant to pin: two SM classes, at
/// least three full waves, a fast-forwarded chunk and a partial last wave.
fn assert_shape(case: &Case, t: &KernelTiming, tr: &DeviceTrace) {
    let sms = case.dev.num_sms as u64;
    let per_wave = t.blocks_per_sm as u64 * sms;
    assert!(
        !t.total_blocks.is_multiple_of(sms),
        "{}: one SM class only ({} blocks on {sms} SMs)",
        case.name,
        t.total_blocks
    );
    assert!(
        t.total_blocks / per_wave >= 3 && !t.total_blocks.is_multiple_of(per_wave),
        "{}: need >= 3 full waves and a partial one ({} blocks, {per_wave} per wave)",
        case.name,
        t.total_blocks
    );
    assert!(
        tr.spans.iter().any(|s| s.repeats > 1),
        "{}: no fast-forwarded chunk in {:?}",
        case.name,
        tr.spans
    );
}

#[test]
fn device_model_is_bit_identical_to_golden() {
    let cases = [
        // One OURS block is resident per SM: 405 = 5·80 + 5 and
        // 185 = 5·36 + 5 blocks.
        fused(DeviceSpec::v100(), 15, 27),
        fused(DeviceSpec::rtx2070(), 5, 37),
        // Three GEMM blocks are resident per SM: 1285 = 16·80 + 5 and
        // 581 = 16·36 + 5 blocks, so every SM also runs a partial wave.
        gemm(DeviceSpec::v100(), 1285),
        gemm(DeviceSpec::rtx2070(), 581),
    ];
    let mut lines = Vec::new();
    for case in &cases {
        for on in [false, true] {
            let opts = TimingOptions {
                profile: on,
                counters: on,
                jobs: 1,
                ..Default::default()
            };
            let (l, t, tr) = line(case, Model::Device, opts);
            assert_shape(case, &t, &tr);
            lines.push(l);
        }
    }
    // The exact model simulates every SM: 41 = 36 + 5 blocks keeps that
    // cheap while still giving two SM classes and partial waves.
    let exact = gemm(DeviceSpec::rtx2070(), 41);
    for jobs in [1, 2] {
        let opts = TimingOptions {
            profile: true,
            counters: true,
            jobs,
            ..Default::default()
        };
        lines.push(line(&exact, Model::DeviceExact, opts).0);
    }
    let text = lines.join("\n") + "\n";

    if std::env::var("HOTLOOP_GOLDEN_REGEN").is_ok() {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN).parent().unwrap()).unwrap();
        std::fs::write(GOLDEN, &text).unwrap();
        eprintln!("regenerated {GOLDEN}");
        return;
    }

    let golden = std::fs::read_to_string(GOLDEN)
        .expect("missing golden file; run with HOTLOOP_GOLDEN_REGEN=1 to create it");
    if text != golden {
        for (got, want) in lines.iter().zip(golden.lines()) {
            if got != want {
                eprintln!("mismatch:\n  got  {got}\n  want {want}");
            }
        }
        panic!("device-model timing drifted from the committed golden (see above)");
    }
}

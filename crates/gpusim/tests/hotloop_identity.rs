//! Golden bit-identity contract for the timing hot loop.
//!
//! Runs the three kernel families the experiments depend on (our fused
//! Winograd kernel, the cuDNN-like fused variant, and a tiled GEMM) on both
//! simulated devices, across every {profile, counters} combination, and
//! checks two things against a committed golden file:
//!
//! 1. a digest of the **complete** `KernelTiming` result — including the
//!    stall profile's per-line buckets and every hardware counter — via
//!    its `Debug` rendering (Rust's `Debug` for `f64` prints the shortest
//!    round-trippable decimal, so two timings digest equal iff they are
//!    bit-identical);
//! 2. the simcache content address (`gpusim::key`) of the call, so warm
//!    caches written by earlier revisions still hit.
//!
//! The goldens were originally captured from the pre-optimization
//! cycle-by-cycle loop and reproduced bit-exactly by the event-driven
//! rewrite. They were regenerated once for `TIMING_MODEL_VERSION = 2` (the
//! multi-wave device model): the retained one-wave path now caps residency
//! at `ceil(total/num_sms)`, reports `busy_sms`, and mixes the model version
//! into the cache key, so both digests legitimately moved. They moved once
//! more, with every other numeric column unchanged, when `Digest`'s second
//! stream got an odd multiplier and `gpusim::key` began hashing every model
//! the same way. The `timing=` digests moved once more, and the issue-event
//! count column went, when `KernelTiming` dropped its idle breakdown and
//! its issue, register-bank and warp-switch tallies and the stall profile
//! dropped its issue-event trace; every other column stayed unchanged.
//! Regenerate only when an intentional model change lands:
//!
//! ```text
//! HOTLOOP_GOLDEN_REGEN=1 cargo test -p gpusim --test hotloop_identity
//! ```

use gpusim::{DeviceSpec, Digest, Gpu, Model, TimingOptions};
use kernels::gemm::{GemmConfig, GemmKernel};
use kernels::{FusedConfig, FusedKernel};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/hotloop_identity.txt"
);

/// Allocates a case's buffers on a fresh GPU and returns the parameter block.
type ParamFn = Box<dyn Fn(&mut Gpu) -> Vec<u8>>;

/// One kernel under test: a module plus a closure that allocates its buffers
/// on a fresh GPU and returns the parameter block.
struct Case {
    name: &'static str,
    module: sass::Module,
    dims: gpusim::LaunchDims,
    region: (u32, u32),
    capacity: usize,
    params: ParamFn,
}

fn cases() -> Vec<Case> {
    let mut v = Vec::new();
    // Small problem instances keep 24 full simulations fast while still
    // exercising every mechanism (yield, reuse, bank conflicts, smem phases,
    // scoreboards, L1/L2/DRAM, barriers).
    let (c, h, w, n, k) = (32u32, 4u32, 4u32, 32u32, 64u32);
    for (name, cfg) in [
        ("fused_ours", FusedConfig::ours(c, h, w, n, k)),
        ("fused_cudnn_like", FusedConfig::cudnn_like(c, h, w, n, k)),
    ] {
        let kern = FusedKernel::emit(cfg);
        let (din, dtf, dout) = (
            (c * h * w * n) as u64 * 4,
            (c * 16 * k) as u64 * 4,
            (k * h * w * n) as u64 * 4,
        );
        v.push(Case {
            name,
            dims: kern.launch_dims(),
            region: kern.region,
            capacity: 1 << 22,
            module: kern.module.clone(),
            params: Box::new(move |gpu| {
                let a = gpu.alloc(din);
                let b = gpu.alloc(dtf);
                let o = gpu.alloc(dout);
                kern.params(a, b, o)
            }),
        });
    }
    let (m, nn, kd) = (64u32, 256u32, 288u32);
    let kern = GemmKernel::emit(GemmConfig::new(m, nn, kd));
    v.push(Case {
        name: "gemm",
        dims: kern.launch_dims(),
        region: kern.region,
        capacity: 1 << 22,
        module: kern.module.clone(),
        params: Box::new(move |gpu| {
            let a = gpu.alloc((m * kd) as u64 * 4);
            let b = gpu.alloc((kd * nn) as u64 * 4);
            let c = gpu.alloc((m * nn) as u64 * 4);
            kern.params(a, b, c)
        }),
    });
    v
}

/// Render the full observed state of one timing run as one golden line.
fn run_line(case: &Case, dev: &DeviceSpec, profile: bool, counters: bool) -> String {
    let opts = TimingOptions {
        region: Some(case.region),
        profile,
        counters,
        ..Default::default()
    };
    let mut gpu = Gpu::new(dev.clone(), case.capacity);
    let params = (case.params)(&mut gpu);
    let (m, dims, model) = (&case.module, case.dims, Model::OneWave);
    let (t, _) =
        gpusim::simulate(&mut gpu, m, dims, &params, model, opts).expect("timing run failed");
    let key = gpusim::key(dev, m, dims, &params, model, opts).hex();
    let mut d = Digest::new();
    d.str(&format!("{t:?}"));
    format!(
        "{}/{}/p{}c{} timing={} key={} wave_cycles={} time_bits={:016x}",
        case.name,
        dev.name,
        profile as u8,
        counters as u8,
        d.hex(),
        key,
        t.wave_cycles,
        t.time_s.to_bits(),
    )
}

#[test]
fn hot_loop_is_bit_identical_to_golden() {
    let devices = [DeviceSpec::v100(), DeviceSpec::rtx2070()];
    let mut lines = Vec::new();
    for case in cases() {
        for dev in &devices {
            for (profile, counters) in [(false, false), (true, false), (false, true), (true, true)]
            {
                lines.push(run_line(&case, dev, profile, counters));
            }
        }
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
        panic!("timing output drifted from the committed golden (see above)");
    }
}

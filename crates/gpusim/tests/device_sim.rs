//! Contracts of the full-device multi-wave timing model (`gpusim::device_sim`,
//! `Model::Device` and `Model::DeviceExact`) against the retained one-wave
//! analytic path (`Model::OneWave`):
//!
//! * **golden agreement** — on grids that are an exact multiple of one full
//!   device wave, the two models must agree bit-for-bit on `time_s` and
//!   `flops`, and the device makespan must equal `waves × wave_cycles`;
//! * **partial-wave correction** — on grids whose last wave is partial, the
//!   device model must charge *less* than the one-wave model's full-wave
//!   extrapolation (that overcharge is the bug the device model fixes);
//! * **determinism** — sharding SMs across worker threads must be
//!   bit-stable: any `jobs` value yields an identical `KernelTiming`,
//!   including the stall profile and hardware counters;
//! * **counter reconciliation** — the `Σ issue + Σ stalls + empty =
//!   schedulers × cycles` identities extend to device totals, with
//!   `HwCounters::wave_cycles` accumulating busy scheduler-cycles over SMs.

use gpusim::{
    DeviceSpec, DeviceTrace, Gpu, KernelTiming, LaunchDims, LaunchError, Model, ParamBuilder,
    TimingOptions,
};
use sass::assemble;

/// Compute-only FFMA loop (no memory traffic): timing is independent of
/// block coordinates and cache state, which is what makes exact one-wave
/// agreement provable rather than approximate.
fn ffma_module() -> sass::Module {
    let mut body = String::from(".kernel peak\n");
    body.push_str("MOV R2, 0x3f800000;\nMOV R3, 0x3f800000;\n");
    body.push_str("MOV R63, 0x80;\nLOOP:\n");
    for i in 0..32 {
        let d = 4 + (i % 32);
        body.push_str(&format!("--:-:-:Y:1  FFMA R{d}, R2, R3, R{d};\n"));
    }
    body.push_str("IADD3 R63, R63, -1, RZ;\n");
    body.push_str("ISETP.GT.AND P0, PT, R63, 0, PT;\n");
    body.push_str("--:-:-:Y:5  @P0 BRA `(LOOP);\nEXIT;\n");
    assemble(&body).unwrap()
}

/// Pointer-chasing load loop (global memory + L1/L2 + writeback): exercises
/// the memory backend, whose bandwidth-share and cache-carry terms are the
/// interesting part of the device model.
fn latency_module() -> sass::Module {
    assemble(
        r#"
.kernel lat
.params 16
    --:-:-:Y:1  S2R R0, SR_TID.X;
    --:-:-:Y:1  S2R R1, SR_CTAID.X;
    --:-:-:Y:6  MOV R10, c[0x0][0x160];
    --:-:-:Y:6  MOV R11, c[0x0][0x164];
    --:-:-:Y:6  MOV R20, 0x20;
    --:-:-:Y:6  IMAD R2, R1, 0x40, R0;
    --:-:-:Y:6  IMAD.WIDE.U32 R2, R2, 0x4, R10;
LOOP:
    --:-:0:-:2  LDG.E R4, [R2];
    01:-:-:Y:4  FADD R8, R8, R4;
    --:-:-:Y:4  IADD3 R20, R20, -1, RZ;
    --:-:-:Y:4  ISETP.GT.AND P0, PT, R20, 0, PT;
    --:-:-:Y:5  @P0 BRA `(LOOP);
    --:-:-:Y:2  STG.E [R2], R8;
    --:-:-:Y:5  EXIT;
"#,
    )
    .unwrap()
}

/// Simulate `blocks × threads` of `m` on a fresh `dev` under `model`.
fn sim(
    m: &sass::Module,
    dev: &DeviceSpec,
    (blocks, threads): (u32, u32),
    model: Model,
    opts: TimingOptions,
) -> Result<(KernelTiming, Option<DeviceTrace>), LaunchError> {
    let mut gpu = Gpu::new(dev.clone(), 1 << 22);
    let buf = gpu.alloc(1 << 20);
    let params = ParamBuilder::new().push_ptr(buf).build();
    let dims = LaunchDims::linear(blocks, threads);
    gpusim::simulate(&mut gpu, m, dims, &params, model, opts)
}

fn one_wave(
    m: &sass::Module,
    dev: &DeviceSpec,
    blocks: u32,
    threads: u32,
    opts: TimingOptions,
) -> KernelTiming {
    sim(m, dev, (blocks, threads), Model::OneWave, opts)
        .unwrap()
        .0
}

fn device(
    m: &sass::Module,
    dev: &DeviceSpec,
    blocks: u32,
    threads: u32,
    model: Model,
    opts: TimingOptions,
) -> KernelTiming {
    sim(m, dev, (blocks, threads), model, opts).unwrap().0
}

/// On an exact-multiple grid (RTX2070, 36 SMs, 2 blocks/SM, 144 blocks =
/// exactly two full device waves) the device model must reproduce the
/// one-wave model bit-for-bit, with and without fast-forwarding.
#[test]
fn matches_one_wave_on_exact_multiple_grids() {
    let m = ffma_module();
    let dev = DeviceSpec::rtx2070();
    let base = TimingOptions {
        blocks_per_sm: Some(2),
        counters: true,
        ..Default::default()
    };
    let ow = one_wave(&m, &dev, 144, 256, base);
    assert_eq!(ow.waves, 2, "grid chosen to be exactly two full waves");
    assert_eq!(ow.blocks_per_sm, 2);

    let dv = device(
        &m,
        &dev,
        144,
        256,
        Model::Device,
        TimingOptions { jobs: 1, ..base },
    );
    assert_eq!(
        dv.time_s.to_bits(),
        ow.time_s.to_bits(),
        "exact-multiple grids must agree bit-for-bit: device {} vs one-wave {}",
        dv.time_s,
        ow.time_s
    );
    assert_eq!(
        dv.wave_cycles,
        ow.waves * ow.wave_cycles,
        "device makespan == waves × wave_cycles"
    );
    assert_eq!(dv.flops.to_bits(), ow.flops.to_bits());
    assert_eq!(dv.tflops.to_bits(), ow.tflops.to_bits());
    assert_eq!(dv.waves, ow.waves);
    assert_eq!(dv.busy_sms, 36);
    assert_eq!(ow.busy_sms, 36);
    // Utilization ratios agree up to float reassociation (the device model
    // sums numerator and denominator over 72 SM-waves before dividing).
    let issue_efficiency = |t: &KernelTiming| t.counters.as_ref().unwrap().issue_efficiency_pct();
    assert!((issue_efficiency(&dv) - issue_efficiency(&ow)).abs() < 1e-9);
    assert!((dv.sol_total_pct - ow.sol_total_pct).abs() < 1e-9);

    // Fast-forwarding steady-state waves is a pure speedup: the exact
    // simulation of every wave gives the identical result.
    let exact = device(
        &m,
        &dev,
        144,
        256,
        Model::DeviceExact,
        TimingOptions { jobs: 1, ..base },
    );
    assert_eq!(format!("{exact:?}"), format!("{dv:?}"));
}

/// 180 blocks on 36 SMs at 2 blocks/SM: the one-wave model rounds up to
/// three full device waves; the device model simulates the five-block
/// per-SM tail (two full waves + one single-block wave) and must come in
/// strictly cheaper. This divergence is the mistiming the device model
/// exists to fix.
#[test]
fn partial_wave_grid_costs_less_than_one_wave_model() {
    let m = ffma_module();
    let dev = DeviceSpec::rtx2070();
    let base = TimingOptions {
        blocks_per_sm: Some(2),
        ..Default::default()
    };
    let ow = one_wave(&m, &dev, 180, 256, base);
    assert_eq!(ow.waves, 3, "one-wave model charges three full waves");

    let dv = device(
        &m,
        &dev,
        180,
        256,
        Model::Device,
        TimingOptions { jobs: 1, ..base },
    );
    assert_eq!(dv.waves, 3);
    assert_eq!(dv.busy_sms, 36);
    assert!(
        dv.time_s < ow.time_s,
        "partial tail wave must cost less than a full wave: device {} vs one-wave {}",
        dv.time_s,
        ow.time_s
    );
    // The correction is bounded: the tail wave still costs something.
    assert!(dv.time_s > ow.time_s * 2.0 / 3.0);
}

/// Sharding SMs across workers must not change a single bit of the result,
/// profile and counters included. 100 blocks on 80 SMs gives an uneven
/// dispatch (20 SMs own two blocks, 60 own one) — the interesting case.
/// `Model::DeviceExact` forces every SM to be simulated individually so the
/// worker sharding is genuinely exercised.
#[test]
fn bit_stable_under_any_jobs() {
    let m = latency_module();
    let dev = DeviceSpec::v100();
    let opts = |jobs| TimingOptions {
        profile: true,
        counters: true,
        jobs,
        ..Default::default()
    };
    let t1 = device(&m, &dev, 100, 64, Model::DeviceExact, opts(1));
    let t2 = device(&m, &dev, 100, 64, Model::DeviceExact, opts(2));
    let t8 = device(&m, &dev, 100, 64, Model::DeviceExact, opts(8));
    assert!(t1.profile.is_some() && t1.counters.is_some());
    let r1 = format!("{t1:?}");
    assert_eq!(r1, format!("{t2:?}"), "jobs=2 drifted from jobs=1");
    assert_eq!(r1, format!("{t8:?}"), "jobs=8 drifted from jobs=1");
}

/// Device-total counters keep every internal identity exact
/// (`HwCounters::validate`), reconcile with the `KernelTiming` view and the
/// stall profile, and need no grid-ratio scaling: DRAM bytes are counted,
/// not extrapolated.
#[test]
fn device_counters_reconcile_at_device_totals() {
    let m = latency_module();
    let dev = DeviceSpec::v100();
    let t = device(
        &m,
        &dev,
        100,
        64,
        Model::Device,
        TimingOptions {
            profile: true,
            counters: true,
            ..Default::default()
        },
    );
    assert_eq!(t.busy_sms, 80);
    let c = t.counters.as_ref().unwrap();
    c.validate().unwrap();

    // counters.wave_cycles sums busy scheduler-cycles over SMs; the
    // KernelTiming wave_cycles is the device makespan. Busy total is
    // bracketed by makespan (one SM busy) and busy_sms × makespan.
    assert!(c.wave_cycles >= t.wave_cycles);
    assert!(c.wave_cycles <= t.busy_sms as u64 * t.wave_cycles);

    assert_eq!(c.smem_extra_phases, t.smem_conflict_cycles);

    // The device model counts DRAM traffic exactly — no wave-ratio scaling.
    assert_eq!(c.dram_read_bytes + c.dram_write_bytes, t.dram_bytes);

    // Counters and profile merge over SMs and fast-forwarded waves alike:
    // the same issues and the same bank-conflict cycles.
    let p = t.profile.as_ref().unwrap();
    assert_eq!(c.issued, p.lines.iter().map(|l| l.executed).sum::<u64>());
    assert_eq!(
        c.reg_bank_conflicts + c.smem_extra_phases,
        p.lines.iter().map(|l| l.bank_conflict_cycles).sum::<u64>()
    );

    // The stall profile keeps its accounting identity at device totals.
    assert_eq!(
        p.attributed_cycles(),
        p.schedulers as u64 * p.wave_cycles,
        "attributed == schedulers × busy cycles must survive the merge"
    );
    assert_eq!(c.wave_cycles, p.wave_cycles);
}

/// Satellite fixes in the retained analytic path: an empty grid costs
/// nothing, and a grid smaller than one SM's residency is not charged a
/// full-device wave.
#[test]
fn analytic_path_edge_cases() {
    let m = ffma_module();
    let dev = DeviceSpec::v100();

    // total_blocks == 0: free, and no phantom wave.
    let zero = one_wave(&m, &dev, 0, 256, TimingOptions::default());
    assert_eq!(zero.total_blocks, 0);
    assert_eq!(zero.busy_sms, 0);
    assert_eq!(zero.waves, 0);
    assert_eq!(zero.wave_cycles, 0);
    assert_eq!(zero.time_s, 0.0);
    assert_eq!(zero.flops, 0.0);

    // 3 blocks on an 80-SM device: residency is capped at one block per SM
    // (not the occupancy limit), a single wave, three busy SMs.
    let tiny = one_wave(
        &m,
        &dev,
        3,
        256,
        TimingOptions {
            blocks_per_sm: Some(4),
            ..Default::default()
        },
    );
    assert_eq!(tiny.blocks_per_sm, 1, "residency capped at ceil(3/80)");
    assert_eq!(tiny.waves, 1);
    assert_eq!(tiny.busy_sms, 3);

    // The device model agrees on the tiny grid: three SMs, one wave each.
    let dv = device(
        &m,
        &dev,
        3,
        256,
        Model::Device,
        TimingOptions {
            blocks_per_sm: Some(4),
            ..Default::default()
        },
    );
    assert_eq!(dv.busy_sms, 3);
    assert_eq!(dv.waves, 1);
    assert_eq!(dv.time_s.to_bits(), tiny.time_s.to_bits());

    // Empty grid through the device path too.
    let dz = device(&m, &dev, 0, 256, Model::Device, TimingOptions::default());
    assert_eq!(dz.time_s, 0.0);
    assert_eq!(dz.busy_sms, 0);
}

/// Tracing is pure observability: the traced call returns bit-identical
/// timing, and the recorded wave spans reconcile with it — per-SM repeats
/// sum to that SM's wave count, spans on one lane tile its busy time
/// back-to-back, and the trace makespan is the device makespan. The
/// one-wave model has no device timeline, so it rejects a trace.
#[test]
fn traced_timing_is_identical_and_spans_reconcile() {
    let m = latency_module();
    let dev = DeviceSpec::v100();
    // 100 blocks on 80 SMs, exact mode: 20 SMs run two waves, 60 run one.
    let opts = TimingOptions {
        blocks_per_sm: Some(1),
        ..Default::default()
    };
    let plain = device(&m, &dev, 100, 64, Model::DeviceExact, opts);
    assert!(sim(&m, &dev, (100, 64), Model::DeviceExact, opts)
        .unwrap()
        .1
        .is_none());

    let traced = TimingOptions {
        trace: true,
        ..opts
    };
    let (timing, trace) = sim(&m, &dev, (100, 64), Model::DeviceExact, traced).unwrap();
    assert_eq!(format!("{timing:?}"), format!("{plain:?}"));
    assert!(matches!(
        sim(&m, &dev, (100, 64), Model::OneWave, traced),
        Err(LaunchError::Unsupported(_))
    ));
    let trace = trace.expect("trace requested");

    assert!(!trace.truncated);
    assert_eq!(trace.makespan_cycles, timing.wave_cycles);
    let lanes: std::collections::BTreeSet<u32> = trace.spans.iter().map(|s| s.sm).collect();
    assert_eq!(lanes.len(), 80, "exact mode: one lane per busy SM");
    let mut device_end = 0u64;
    for &sm in &lanes {
        let mut cursor = 0u64;
        let mut waves = 0u64;
        for s in trace.spans.iter().filter(|s| s.sm == sm) {
            assert_eq!(s.start_cycle, cursor, "spans tile the lane gaplessly");
            assert!(s.blocks > 0 && s.share_sms > 0);
            cursor += s.duration();
            waves += s.repeats;
        }
        let expect_waves = if u64::from(sm) < 100 % 80 { 2 } else { 1 };
        assert_eq!(waves, expect_waves, "SM {sm}");
        device_end = device_end.max(cursor);
    }
    assert_eq!(device_end, trace.makespan_cycles);
}

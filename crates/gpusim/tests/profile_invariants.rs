//! Invariants of the `simprof` stall-attribution profile (ISSUE: profiling
//! must reconcile with `KernelTiming`, and must be free when off).

use gpusim::{
    DeviceSpec, Gpu, KernelTiming, LaunchDims, Model, ParamBuilder, StallCause, TimingOptions,
};
use sass::assemble;

/// A compute loop (FP32-bound), a latency loop (scoreboard-bound) and a
/// barrier kernel: three different dominant stall profiles.
fn kernels() -> Vec<(&'static str, sass::Module, u32, usize)> {
    let ffma = {
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
    };
    let latency = assemble(
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
    .unwrap();
    let barrier = assemble(
        r#"
.kernel bar
.smem 1024
    --:-:-:Y:1  S2R R0, SR_TID.X;
    --:-:-:Y:6  IMAD R2, R0, 0x4, RZ;
    --:-:-:Y:2  STS [R2], R0;
    3f:-:-:Y:1  BAR.SYNC 0x0;
    --:-:0:-:2  LDS R4, [R2];
    01:-:-:Y:4  IADD3 R4, R4, 1, RZ;
    3f:-:-:Y:1  BAR.SYNC 0x0;
    --:-:-:Y:2  STS [R2], R4;
    --:-:-:Y:5  EXIT;
"#,
    )
    .unwrap();
    vec![
        ("ffma", ffma, 144, 1 << 20),
        ("latency", latency, 160, 1 << 24),
        ("barrier", barrier, 72, 1 << 20),
    ]
}

fn run(m: &sass::Module, blocks: u32, mem: usize, threads: u32, profile: bool) -> KernelTiming {
    let mut gpu = Gpu::new(DeviceSpec::v100(), mem);
    let buf = gpu.alloc(1 << 20);
    let params = ParamBuilder::new().push_ptr(buf).build();
    gpusim::simulate(
        &mut gpu,
        m,
        LaunchDims::linear(blocks, threads),
        &params,
        Model::OneWave,
        TimingOptions {
            profile,
            ..Default::default()
        },
    )
    .unwrap()
    .0
}

/// Every scheduler-cycle of the wave lands in exactly one bucket: the
/// per-line issue+stall sums plus the empty bucket reconcile exactly with
/// `schedulers * wave_cycles`, for every kind of dominant stall.
#[test]
fn attribution_reconciles_with_wave_cycles() {
    for (name, m, blocks, mem) in kernels() {
        let threads = if name == "latency" { 64 } else { 256 };
        let t = run(&m, blocks, mem, threads, true);
        let p = t.profile.as_ref().expect("profile requested");
        assert_eq!(
            p.wave_cycles, t.wave_cycles,
            "{name}: profile wave mismatch"
        );
        assert_eq!(
            p.lines.len(),
            m.insts.len(),
            "{name}: one entry per SASS line"
        );
        assert_eq!(
            p.attributed_cycles(),
            p.schedulers as u64 * p.wave_cycles,
            "{name}: per-line sums + empty must cover every scheduler slot"
        );
        let exec: u64 = p.lines.iter().map(|l| l.executed).sum();
        assert!(exec > 0, "{name}: something must have issued");
    }
}

/// The profile's idle breakdown (stalls by cause + yield recovery + empty)
/// sums to exactly the scheduler slots that issued nothing.
#[test]
fn idle_breakdown_sums_to_total_idle() {
    for (name, m, blocks, mem) in kernels() {
        let threads = if name == "latency" { 64 } else { 256 };
        let t = run(&m, blocks, mem, threads, true);
        let p = t.profile.as_ref().unwrap();
        let issue: u64 = p.lines.iter().map(|l| l.executed).sum();
        let total_idle = p.schedulers as u64 * p.wave_cycles - issue;
        let mut by_cause = [0u64; 5];
        let mut yield_rec = 0u64;
        for l in &p.lines {
            for c in StallCause::ALL {
                by_cause[c as usize] += l.stalls.by_cause[c as usize];
            }
            yield_rec += l.stalls.yield_switch;
        }
        let sum: u64 = by_cause.iter().sum::<u64>() + yield_rec + p.empty_cycles;
        assert_eq!(
            sum, total_idle,
            "{name}: idle components must sum to total idle"
        );
        // Each kernel's dominant cause shows up where expected.
        match name {
            "latency" => assert!(
                by_cause[StallCause::Scoreboard as usize] > 0,
                "latency kernel must show scoreboard stalls"
            ),
            "barrier" => assert!(
                by_cause[StallCause::Barrier as usize] > 0,
                "barrier kernel must show barrier stalls"
            ),
            _ => {}
        }
    }
}

/// `profile: false` must not change the simulation: every other
/// `KernelTiming` field is bit-identical with and without profiling.
#[test]
fn profile_off_is_bit_identical() {
    for (name, m, blocks, mem) in kernels() {
        let threads = if name == "latency" { 64 } else { 256 };
        let off = run(&m, blocks, mem, threads, false);
        let on = run(&m, blocks, mem, threads, true);
        assert!(off.profile.is_none());
        assert!(on.profile.is_some());
        assert_eq!(off.wave_cycles, on.wave_cycles, "{name}");
        assert_eq!(off.waves, on.waves, "{name}");
        assert_eq!(off.blocks_per_sm, on.blocks_per_sm, "{name}");
        assert_eq!(off.total_blocks, on.total_blocks, "{name}");
        assert_eq!(off.time_s.to_bits(), on.time_s.to_bits(), "{name}");
        assert_eq!(off.flops.to_bits(), on.flops.to_bits(), "{name}");
        assert_eq!(off.tflops.to_bits(), on.tflops.to_bits(), "{name}");
        assert_eq!(off.sol_pct.to_bits(), on.sol_pct.to_bits(), "{name}");
        assert_eq!(
            off.sol_total_pct.to_bits(),
            on.sol_total_pct.to_bits(),
            "{name}"
        );
        assert_eq!(off.dram_bytes, on.dram_bytes, "{name}");
        assert_eq!(
            off.dram_time_s.to_bits(),
            on.dram_time_s.to_bits(),
            "{name}"
        );
        assert_eq!(off.region_cycles, on.region_cycles, "{name}");
        assert_eq!(off.smem_conflict_cycles, on.smem_conflict_cycles, "{name}");
    }
}

/// The compute kernel's hottest line is an FFMA.
#[test]
fn hot_lines_and_histogram() {
    let (_, m, blocks, mem) = kernels().remove(0);
    let t = run(&m, blocks, mem, 256, true);
    let p = t.profile.unwrap();
    let hot = p.hot_lines(5);
    assert!(!hot.is_empty());
    let text = &p.lines[hot[0]].text;
    assert!(
        text.contains("  FFMA "),
        "hottest line of an FFMA loop: {text}"
    );
}

//! Focused tests of the cycle-level timing model's mechanisms: yield-flag
//! costs, L1 capacity carve-out, warm-up behaviour, idle attribution, and
//! grid-coordinate handling in multi-dimensional launches.

use gpusim::{DeviceSpec, Gpu, LaunchDims, Model, ParamBuilder, StallCause, TimingOptions};
use sass::assemble;

fn ffma_stream_kernel(yield_every: Option<u32>) -> sass::Module {
    let mut body = String::from(
        ".kernel ystream\nMOV R2, 0x3f800000;\nMOV R3, 0x3f800000;\nMOV R63, 0x100;\nLOOP:\n",
    );
    let mut count = 0u32;
    for i in 0..64 {
        let d = 4 + (i % 32);
        count += 1;
        let y = match yield_every {
            Some(p) if count.is_multiple_of(p) => "-",
            _ => "Y",
        };
        body.push_str(&format!("--:-:-:{y}:1  FFMA R{d}, R2, R3, R{d};\n"));
    }
    body.push_str("IADD3 R63, R63, -1, RZ;\nISETP.GT.AND P0, PT, R63, 0, PT;\n--:-:-:Y:5  @P0 BRA `(LOOP);\nEXIT;\n");
    assemble(&body).unwrap()
}

fn time_module(
    m: &sass::Module,
    dev: DeviceSpec,
    blocks: u32,
    opts: TimingOptions,
) -> gpusim::KernelTiming {
    let mut gpu = Gpu::new(dev, 1 << 20);
    gpusim::simulate(
        &mut gpu,
        m,
        LaunchDims::linear(blocks, 256),
        &[],
        Model::OneWave,
        opts,
    )
    .unwrap()
    .0
}

#[test]
fn cleared_yield_costs_issue_slots() {
    // §6.1: clearing the yield flag periodically must cost throughput.
    let opts = TimingOptions::default();
    let natural = time_module(&ffma_stream_kernel(None), DeviceSpec::rtx2070(), 144, opts);
    let every7 = time_module(
        &ffma_stream_kernel(Some(7)),
        DeviceSpec::rtx2070(),
        144,
        opts,
    );
    assert!(
        every7.wave_cycles as f64 > 1.03 * natural.wave_cycles as f64,
        "natural {} vs every7 {}",
        natural.wave_cycles,
        every7.wave_cycles
    );
}

#[test]
fn idle_attribution_sums_into_known_buckets() {
    let opts = TimingOptions {
        profile: true,
        ..TimingOptions::default()
    };
    let t = time_module(&ffma_stream_kernel(None), DeviceSpec::v100(), 80, opts);
    let p = t.profile.expect("profile requested");
    let mut by_cause = [0u64; 5];
    for l in &p.lines {
        for (sum, n) in by_cause.iter_mut().zip(l.stalls.by_cause) {
            *sum += n;
        }
    }
    // A pure FFMA stream loses nothing to memory or barriers.
    assert_eq!(
        by_cause[StallCause::Barrier as usize],
        0,
        "no barriers in this kernel: {by_cause:?}"
    );
    assert_eq!(
        by_cause[StallCause::MioQueue as usize],
        0,
        "no MIO in this kernel: {by_cause:?}"
    );
}

/// A streaming kernel whose sectors are re-read must hit the L1 and carry
/// far less DRAM traffic than its cold equivalent.
#[test]
fn l1_absorbs_sector_rewalks() {
    // Each warp reads the same 4 KiB region 32 times.
    let m = assemble(
        r#"
.kernel rewalk
.params 16
    --:-:-:Y:1  S2R R0, SR_TID.X;
    --:-:-:Y:6  MOV R10, c[0x0][0x160];
    --:-:-:Y:6  MOV R11, c[0x0][0x164];
    --:-:-:Y:6  MOV R20, 0x20;
    --:-:-:Y:6  IMAD.WIDE.U32 R2, R0, 0x4, R10;
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
    let mut gpu = Gpu::new(DeviceSpec::v100(), 1 << 24);
    let buf = gpu.alloc(1 << 20);
    let params = ParamBuilder::new().push_ptr(buf).build();
    let t = gpusim::simulate(
        &mut gpu,
        &m,
        LaunchDims::linear(160, 256),
        &params,
        Model::OneWave,
        TimingOptions::default(),
    )
    .unwrap()
    .0;
    // 32 reads of 1 KiB/warp; DRAM traffic must be ~1 read's worth + the
    // store, not 32 reads' worth.
    let unique_bytes = 160u64 * 256 * 4 * 2; // loads + stores
    assert!(
        t.dram_bytes < 3 * unique_bytes,
        "dram {} vs unique {}",
        t.dram_bytes,
        unique_bytes
    );
}

#[test]
fn multi_dim_grids_resolve_block_coords() {
    // Each block writes its flattened (x,y,z) id; functional + timing paths
    // must agree on block coordinates.
    let m = assemble(
        r#"
.kernel coords
.params 16
    --:-:-:Y:1  S2R R0, SR_TID.X;
    --:-:-:Y:1  S2R R1, SR_CTAID.X;
    --:-:-:Y:1  S2R R2, SR_CTAID.Y;
    --:-:-:Y:6  S2R R3, SR_CTAID.Z;
    --:-:-:Y:6  MOV R10, c[0x0][0x160];
    --:-:-:Y:6  MOV R11, c[0x0][0x164];
    // id = (z*GY + y)*GX + x, with GX=3, GY=2 baked in.
    --:-:-:Y:6  IMAD R4, R3, 0x2, R2;
    --:-:-:Y:6  IMAD R4, R4, 0x3, R1;
    --:-:-:Y:6  ISETP.NE.AND P0, PT, R0, 0, PT;
    --:-:-:Y:6  IMAD.WIDE.U32 R6, R4, 0x4, R10;
    --:-:-:Y:2  @!P0 STG.E [R6], R4;
    --:-:-:Y:5  EXIT;
"#,
    )
    .unwrap();
    let dims = LaunchDims::new([3, 2, 4], [32, 1, 1]);
    let mut gpu = Gpu::new(DeviceSpec::v100(), 1 << 16);
    let buf = gpu.alloc(24 * 4);
    let params = ParamBuilder::new().push_ptr(buf).build();
    gpu.launch(&m, dims, &params).unwrap();
    for id in 0..24u32 {
        assert_eq!(
            gpu.mem.read_u32(buf + id as u64 * 4).unwrap(),
            id,
            "block {id}"
        );
    }
}

#[test]
fn occupancy_override_caps_resident_blocks() {
    let m = ffma_stream_kernel(None);
    let mut gpu = Gpu::new(DeviceSpec::v100(), 1 << 20);
    let t = gpusim::simulate(
        &mut gpu,
        &m,
        LaunchDims::linear(160, 256),
        &[],
        Model::OneWave,
        TimingOptions {
            blocks_per_sm: Some(1),
            ..Default::default()
        },
    )
    .unwrap()
    .0;
    assert_eq!(t.blocks_per_sm, 1);
    assert_eq!(t.waves, 2);
}

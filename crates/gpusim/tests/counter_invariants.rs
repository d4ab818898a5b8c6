//! Invariants of the `counters` hardware-counter layer (ISSUE: every counter
//! must reconcile exactly with the rest of the model, and collection must be
//! free when off).

use gpusim::{DeviceSpec, Gpu, KernelTiming, LaunchDims, Model, ParamBuilder, TimingOptions};
use sass::assemble;

/// The three stall-profile kernels from `profile_invariants.rs` plus a
/// shared-memory kernel whose stride puts all 32 lanes in one bank — four
/// different dominant counter signatures.
fn kernels() -> Vec<(&'static str, sass::Module, u32, u32, usize)> {
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
    // Stride of 128 B: every lane of a warp lands in bank 0 — a 32-way
    // conflict on each of the three shared accesses.
    let smemconf = assemble(
        r#"
.kernel smemconf
.smem 8192
    --:-:-:Y:1  S2R R0, SR_TID.X;
    --:-:-:Y:6  IMAD R2, R0, 0x80, RZ;
    --:-:-:Y:2  STS [R2], R0;
    --:-:0:-:2  LDS R4, [R2];
    01:-:-:Y:4  IADD3 R4, R4, 1, RZ;
    --:-:-:Y:2  STS [R2], R4;
    --:-:-:Y:5  EXIT;
"#,
    )
    .unwrap();
    vec![
        ("ffma", ffma, 144, 256, 1 << 20),
        ("latency", latency, 160, 64, 1 << 24),
        ("barrier", barrier, 72, 256, 1 << 20),
        ("smemconf", smemconf, 36, 64, 1 << 20),
    ]
}

fn run(
    m: &sass::Module,
    blocks: u32,
    mem: usize,
    threads: u32,
    opts: TimingOptions,
) -> KernelTiming {
    let mut gpu = Gpu::new(DeviceSpec::v100(), mem);
    let buf = gpu.alloc(1 << 20);
    let params = ParamBuilder::new().push_ptr(buf).build();
    gpusim::simulate(
        &mut gpu,
        m,
        LaunchDims::linear(blocks, threads),
        &params,
        Model::OneWave,
        opts,
    )
    .unwrap()
    .0
}

fn counted(m: &sass::Module, blocks: u32, mem: usize, threads: u32) -> KernelTiming {
    run(
        m,
        blocks,
        mem,
        threads,
        TimingOptions {
            counters: true,
            ..Default::default()
        },
    )
}

/// `counters: false` must not change the simulation: every other
/// `KernelTiming` field is bit-identical with and without collection.
#[test]
fn counters_off_is_bit_identical() {
    for (name, m, blocks, threads, mem) in kernels() {
        let off = run(&m, blocks, mem, threads, TimingOptions::default());
        let on = counted(&m, blocks, mem, threads);
        assert!(off.counters.is_none());
        assert!(on.counters.is_some());
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

/// Every counter satisfies its reconciliation invariant: the internal
/// identities (`HwCounters::validate`) and the cross-`KernelTiming` ones
/// from the `gpusim::counters` module table.
#[test]
fn counters_validate_and_reconcile_with_kernel_timing() {
    for (name, m, blocks, threads, mem) in kernels() {
        let t = counted(&m, blocks, mem, threads);
        let c = t.counters.as_ref().expect("counters requested");
        c.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(c.wave_cycles, t.wave_cycles, "{name}");
        assert!(c.issued > 0, "{name}: something must have issued");

        // Bank-conflict overage is exactly the smem conflict cycles.
        assert_eq!(c.smem_extra_phases, t.smem_conflict_cycles, "{name}");
        // sol_total_pct counts useful FP cycles only: 2 per FP issue.
        let sol_from_counters = 100.0 * (2 * c.fp_issues) as f64 / c.slot_capacity() as f64;
        assert!(
            (sol_from_counters - t.sol_total_pct).abs() < 1e-9,
            "{name}: sol from counters {} vs {}",
            sol_from_counters,
            t.sol_total_pct
        );
        // Wave-local DRAM bytes scale to the whole-grid estimate.
        let scaled = ((c.dram_read_bytes + c.dram_write_bytes) as f64 * t.total_blocks as f64
            / t.blocks_per_sm as f64) as u64;
        assert_eq!(scaled, t.dram_bytes, "{name}: DRAM scaling");

        match name {
            "ffma" => assert!(c.fp_issues > c.issued / 2, "ffma kernel issues mostly FP32"),
            "latency" => {
                assert!(c.global_accesses > 0, "latency kernel loads");
                assert!(
                    c.l1_sector_hits > 0,
                    "repeated loads of one line must hit L1"
                );
            }
            "barrier" => {
                assert!(c.smem_accesses > 0);
                assert_eq!(c.smem_extra_phases, 0, "stride-4 smem is conflict-free");
            }
            "smemconf" => {
                // 3 shared accesses per warp, each a 32-way conflict:
                // 31 extra phases per access, none ideal beyond the floor.
                assert_eq!(c.smem_extra_phases, 31 * c.smem_accesses, "{name}");
                assert!(c.smem_extra_phases > 0);
                assert_eq!(c.smem_accesses_by_width[0], c.smem_accesses);
            }
            _ => unreachable!(),
        }
    }
}

/// Counters and the stall profile are two views of one scheduler loop:
/// enabling both keeps them consistent with each other.
#[test]
fn counters_agree_with_profile() {
    for (name, m, blocks, threads, mem) in kernels() {
        let t = run(
            &m,
            blocks,
            mem,
            threads,
            TimingOptions {
                counters: true,
                profile: true,
                ..Default::default()
            },
        );
        let c = t.counters.as_ref().unwrap();
        let p = t.profile.as_ref().unwrap();
        let issue_slots: u64 = p.lines.iter().map(|l| l.executed).sum();
        assert_eq!(c.issued, issue_slots, "{name}: issued == profiled issues");
        // Over the same slots, so issue efficiency is the profile's issue
        // share.
        assert_eq!(
            c.slot_capacity(),
            p.schedulers as u64 * p.wave_cycles,
            "{name}"
        );
        // Every extra pipe cycle a bank conflict costs, register-bank or
        // shared-memory, is charged to the line that caused it.
        let bank_conflicts: u64 = p.lines.iter().map(|l| l.bank_conflict_cycles).sum();
        assert_eq!(
            c.reg_bank_conflicts + c.smem_extra_phases,
            bank_conflicts,
            "{name}: counted conflict cycles == profiled ones"
        );
        // A cycle with zero eligible warps on every scheduler is at least as
        // common as a profile-empty slot (blocked warps are ineligible too).
        assert!(
            c.eligible_hist[0] >= p.empty_cycles,
            "{name}: zero-eligible slots {} < empty slots {}",
            c.eligible_hist[0],
            p.empty_cycles
        );
    }
}

/// The memory counts of one block of each memory kernel, in closed form
/// from the kernel text and the thread count. A one-block grid is timed
/// with cold caches (no L2 warm-up block), and both caches are sectored, so
/// every count follows from the addresses alone. `buf` is 256-byte aligned,
/// so a warp's 32 consecutive words fill exactly four 32 B sectors.
#[test]
fn memory_counts_match_closed_form() {
    for (name, m, _, threads, mem) in kernels() {
        // [smem_accesses, smem_phases, smem_extra_phases, global_accesses,
        //  global_sectors, l1_sector_hits, l2_sector_hits, l2_sector_misses,
        //  dram_read_bytes, dram_write_bytes]
        let want: [u64; 10] = match name {
            "ffma" => continue, // no memory traffic
            // `lat`, 64 threads = 2 warps. Each warp loops 32 times
            // (R20 = 0x20) over the same 128 B: 2 × 32 = 64 LDG.32 of 4
            // sectors = 256 load sectors, then one STG.32 per warp = 8 store
            // sectors; 66 accesses, 264 sectors. Each warp's first LDG
            // misses L1 and L2 (8 misses, 8 × 32 B read from DRAM); its
            // other 31 hit L1 (2 × 31 × 4 = 248). The stores skip L1 and
            // hit the 8 sectors the loads brought into L2, so DRAM sees no
            // write.
            "latency" => [0, 0, 0, 66, 264, 248, 8, 8, 256, 0],
            // `bar`, 256 threads = 8 warps, 3 shared accesses each (STS, LDS,
            // STS) at tid × 4: 32 consecutive words in 32 banks, one phase
            // and no conflict. 24 accesses, 24 phases.
            "barrier" => [24, 24, 0, 0, 0, 0, 0, 0, 0, 0],
            // `smemconf`, 64 threads = 2 warps, 3 shared accesses each at
            // tid × 128: 32 words in bank 0, 32 phases against a floor of 1.
            // 6 accesses, 6 × 32 = 192 phases, 6 × 31 = 186 of them extra.
            "smemconf" => [6, 192, 186, 0, 0, 0, 0, 0, 0, 0],
            _ => unreachable!("{name}"),
        };
        let t = counted(&m, 1, mem, threads);
        let c = t.counters.as_ref().unwrap();
        c.validate().unwrap_or_else(|err| panic!("{name}: {err}"));
        let got = [
            c.smem_accesses,
            c.smem_phases,
            c.smem_extra_phases,
            c.global_accesses,
            c.global_sectors,
            c.l1_sector_hits,
            c.l2_sector_hits,
            c.l2_sector_misses,
            c.dram_read_bytes,
            c.dram_write_bytes,
        ];
        assert_eq!(got, want, "{name}");
    }
}

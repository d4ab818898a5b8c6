//! Property tests: the functional executor's ALU semantics agree with host
//! Rust semantics over random operands, for every lane.
//!
//! Randomized with the workspace's deterministic `XorShiftRng` (the registry
//! is not reachable from the build environment, so `proptest` is off-limits);
//! every case prints its operands on failure, so a red run is reproducible.

use gpusim::exec::MemTrace;
use gpusim::{
    ConstBank, DeviceSpec, ExecEnv, GlobalMemory, Gpu, LaunchDims, ParamBuilder, StepEvent, Warp,
};
use sass::isa::{build, Instruction, Op, SrcB};
use sass::reg::{Reg, RZ};
use tensor::XorShiftRng;

/// Run a few instructions on one warp and return the register file.
fn run_warp(insts: Vec<Instruction>, init: impl FnOnce(&mut Warp)) -> Warp {
    let mut insts = insts;
    insts.push(Instruction::new(Op::Exit));
    let global = GlobalMemory::new(1 << 16);
    let mut smem = vec![0u8; 1024];
    let cbank = ConstBank::new([32, 1, 1], [1, 1, 1], &[]);
    let mut warp = Warp::new(32, 0, 32);
    init(&mut warp);
    let mut env = ExecEnv {
        global: &global,
        smem: &mut smem,
        cbank: &cbank,
        ctaid: [0, 0, 0],
        block_dim: [32, 1, 1],
    };
    let mut trace = MemTrace::default();
    loop {
        let ev = gpusim::exec::step(
            &mut warp,
            &insts,
            &mut env,
            0,
            &mut trace,
            gpusim::Effects::All,
        )
        .unwrap();
        if ev == gpusim::StepEvent::Exited {
            break;
        }
    }
    warp
}

/// A "any::<f32>()"-style generator: uniform over raw bit patterns, which
/// covers NaNs, infinities, subnormals and both zeros.
fn arb_f32(rng: &mut XorShiftRng) -> f32 {
    f32::from_bits(rng.next_u32())
}

#[test]
fn ffma_matches_host_fma() {
    let mut rng = XorShiftRng::new(0xFF3A_0001);
    for case in 0..256 {
        let (a, b, c) = (arb_f32(&mut rng), arb_f32(&mut rng), arb_f32(&mut rng));
        let w = run_warp(
            vec![Instruction::new(build::ffma(
                Reg(3),
                Reg(0),
                Reg(1),
                Reg(2),
            ))],
            |w| {
                for lane in 0..32 {
                    w.regs[0][lane] = a.to_bits();
                    w.regs[1][lane] = b.to_bits();
                    w.regs[2][lane] = c.to_bits();
                }
            },
        );
        // A NaN result is the hardware's one canonical NaN.
        let want = a.mul_add(b, c);
        let want = if want.is_nan() {
            0x7fff_ffff
        } else {
            want.to_bits()
        };
        for lane in [0usize, 13, 31] {
            let got = w.regs[3][lane];
            assert_eq!(
                got, want,
                "case {case} lane {lane}: fma({a}, {b}, {c}) = {got:#x} vs {want:#x}"
            );
        }
    }
}

#[test]
fn integer_ops_match_host() {
    let mut rng = XorShiftRng::new(0x1217_0002);
    for case in 0..256 {
        let a = rng.next_u32();
        let b = rng.next_u32();
        let c = rng.next_u32();
        let sh = (rng.next_u32() % 32) as u8;
        let w = run_warp(
            vec![
                Instruction::new(build::iadd3(Reg(3), Reg(0), Reg(1), Reg(2))),
                Instruction::new(build::imad(Reg(4), Reg(0), Reg(1), Reg(2))),
                Instruction::new(Op::ImadHi {
                    d: Reg(5),
                    a: Reg(0),
                    b: SrcB::Reg(Reg(1)),
                    c: Reg(2),
                }),
                Instruction::new(build::shl(Reg(6), Reg(0), sh)),
                Instruction::new(build::shr(Reg(7), Reg(0), sh)),
                Instruction::new(build::and(Reg(8), Reg(0), Reg(1))),
                Instruction::new(build::or(Reg(9), Reg(0), Reg(1))),
                Instruction::new(build::xor(Reg(10), Reg(0), Reg(1))),
                Instruction::new(build::lea(Reg(11), Reg(0), Reg(1), 3)),
                Instruction::new(build::imad_wide(Reg(12), Reg(0), Reg(1), RZ)),
            ],
            |w| {
                for lane in 0..32 {
                    w.regs[0][lane] = a;
                    w.regs[1][lane] = b;
                    w.regs[2][lane] = c;
                }
            },
        );
        let ctx = |got: u32, want: u32, op: &str| {
            assert_eq!(
                got, want,
                "case {case} ({a:#x}, {b:#x}, {c:#x}, sh={sh}): {op}"
            );
        };
        ctx(w.regs[3][0], a.wrapping_add(b).wrapping_add(c), "IADD3");
        ctx(w.regs[4][0], a.wrapping_mul(b).wrapping_add(c), "IMAD");
        ctx(
            w.regs[5][0],
            (((a as u64 * b as u64) >> 32) as u32).wrapping_add(c),
            "IMAD.HI",
        );
        ctx(w.regs[6][0], a << sh, "SHL");
        ctx(w.regs[7][0], a >> sh, "SHR");
        ctx(w.regs[8][0], a & b, "AND");
        ctx(w.regs[9][0], a | b, "OR");
        ctx(w.regs[10][0], a ^ b, "XOR");
        ctx(w.regs[11][0], b.wrapping_add(a << 3), "LEA");
        let wide = a as u64 * b as u64;
        ctx(w.regs[12][0], wide as u32, "IMAD.WIDE lo");
        ctx(w.regs[13][0], (wide >> 32) as u32, "IMAD.WIDE hi");
    }
}

#[test]
fn lop3_implements_its_lut() {
    let mut rng = XorShiftRng::new(0x1093_0003);
    for case in 0..256 {
        let a = rng.next_u32();
        let b = rng.next_u32();
        let c = rng.next_u32();
        let lut = (rng.next_u32() & 0xff) as u8;
        let w = run_warp(
            vec![Instruction::new(Op::Lop3 {
                d: Reg(3),
                a: Reg(0),
                b: SrcB::Reg(Reg(1)),
                c: Reg(2),
                lut,
            })],
            |w| {
                for lane in 0..32 {
                    w.regs[0][lane] = a;
                    w.regs[1][lane] = b;
                    w.regs[2][lane] = c;
                }
            },
        );
        let mut want = 0u32;
        for bit in 0..32 {
            let idx = (((a >> bit) & 1) << 2) | (((b >> bit) & 1) << 1) | ((c >> bit) & 1);
            if lut & (1 << idx) != 0 {
                want |= 1 << bit;
            }
        }
        assert_eq!(
            w.regs[3][0], want,
            "case {case}: LOP3({a:#x}, {b:#x}, {c:#x}, lut={lut:#x})"
        );
    }
}

#[test]
fn p2r_r2p_round_trips_masks() {
    let mut rng = XorShiftRng::new(0x92F9_0004);
    for case in 0..256 {
        let bits = rng.next_u32() % 128;
        let mask = rng.next_u32() % 128;
        let w = run_warp(
            vec![
                // Set predicates from bits, pack, unpack into fresh preds,
                // and repack: the two packed values must agree under mask.
                Instruction::new(Op::R2p {
                    a: Reg(0),
                    mask: 0x7f,
                }),
                Instruction::new(Op::P2r {
                    d: Reg(1),
                    a: RZ,
                    mask,
                }),
                Instruction::new(Op::R2p {
                    a: Reg(1),
                    mask: 0x7f,
                }),
                Instruction::new(Op::P2r {
                    d: Reg(2),
                    a: RZ,
                    mask: 0x7f,
                }),
            ],
            |w| {
                for lane in 0..32 {
                    w.regs[0][lane] = bits;
                }
            },
        );
        assert_eq!(
            w.regs[1][0],
            bits & mask & 0x7f,
            "case {case}: bits={bits:#x} mask={mask:#x}"
        );
        assert_eq!(
            w.regs[2][0],
            bits & mask & 0x7f,
            "case {case}: bits={bits:#x} mask={mask:#x}"
        );
    }
}

/// Global memory round trips arbitrary data through a store/load kernel.
#[test]
fn gmem_round_trip() {
    let m = sass::assemble(
        r#"
.kernel copy
.params 16
    --:-:-:Y:1  S2R R0, SR_TID.X;
    --:-:-:Y:6  MOV R4, c[0x0][0x160];
    --:-:-:Y:6  MOV R5, c[0x0][0x164];
    --:-:-:Y:6  MOV R6, c[0x0][0x168];
    --:-:-:Y:6  MOV R7, c[0x0][0x16c];
    --:-:-:Y:6  IMAD.WIDE.U32 R2, R0, 0x4, R4;
    --:-:-:Y:6  IMAD.WIDE.U32 R8, R0, 0x4, R6;
    --:-:0:-:2  LDG.E R10, [R2];
    01:-:-:Y:2  STG.E [R8], R10;
    --:-:-:Y:5  EXIT;
"#,
    )
    .unwrap();
    let mut rng = XorShiftRng::new(0x6333_0005);
    for case in 0..32 {
        let data: Vec<u32> = (0..32).map(|_| rng.next_u32()).collect();
        let mut gpu = Gpu::new(DeviceSpec::v100(), 1 << 16);
        let src = gpu.alloc(128);
        let dst = gpu.alloc(128);
        for (i, v) in data.iter().enumerate() {
            gpu.mem.write_u32(src + i as u64 * 4, *v).unwrap();
        }
        let params = ParamBuilder::new().push_ptr(src).push_ptr(dst).build();
        gpu.launch(&m, LaunchDims::linear(1, 32), &params).unwrap();
        for (i, v) in data.iter().enumerate() {
            assert_eq!(
                gpu.mem.read_u32(dst + i as u64 * 4).unwrap(),
                *v,
                "case {case} word {i}"
            );
        }
    }
}

/// `step` clears and refills the caller's `MemTrace`. One warp steps
/// through a global store, a shared load, a predicated-off load, a branch
/// and `EXIT` twice: once with a fresh trace per step, once reusing a
/// single trace that starts out full of junk. Every step's trace must be
/// the same in both runs: no stale address, width or `is_store` survives.
#[test]
fn reused_mem_trace_matches_a_fresh_one() {
    let m = sass::assemble(
        r#"
.kernel trace
.smem 128
.params 8
    --:-:-:Y:1  S2R R0, SR_TID.X;
    --:-:-:Y:6  MOV R4, c[0x0][0x160];
    --:-:-:Y:6  MOV R5, c[0x0][0x164];
    --:-:-:Y:6  IMAD.WIDE.U32 R2, R0, 0x4, R4;
    --:-:-:Y:6  SHF.L.U32 R7, R0, 0x2, RZ;
    --:-:-:Y:2  STG.E [R2], R0;
    --:-:0:-:2  LDS R6, [R7];
    --:-:-:Y:6  ISETP.GT.U32.AND P0, PT, R0, 0x40, PT;
    --:-:1:-:2  @P0 LDG.E R8, [R2];
    --:-:-:Y:5  BRA `(END);
    --:-:-:Y:1  NOP;
END:
    --:-:-:Y:5  EXIT;
"#,
    )
    .unwrap();
    let run = |reuse: bool| -> Vec<(StepEvent, MemTrace)> {
        let mut global = GlobalMemory::new(1 << 16);
        let buf = global.alloc(128);
        let cbank = ConstBank::new(
            [32, 1, 1],
            [1, 1, 1],
            &ParamBuilder::new().push_ptr(buf).build(),
        );
        let mut smem = vec![0u8; 128];
        let mut env = ExecEnv {
            global: &global,
            smem: &mut smem,
            cbank: &cbank,
            ctaid: [0, 0, 0],
            block_dim: [32, 1, 1],
        };
        let mut warp = Warp::new(16, 0, 32);
        let mut reused = MemTrace {
            global_addrs: vec![1, 2, 3],
            shared_addrs: vec![7; 40],
            width: 16,
            is_store: true,
            exec_mask: 0xff,
        };
        let mut steps = Vec::new();
        loop {
            let mut fresh = MemTrace::default();
            let trace = if reuse { &mut reused } else { &mut fresh };
            let ev = gpusim::exec::step(
                &mut warp,
                &m.insts,
                &mut env,
                0,
                trace,
                gpusim::Effects::All,
            )
            .unwrap();
            steps.push((ev, trace.clone()));
            if ev == StepEvent::Exited {
                return steps;
            }
        }
    };
    let fresh = run(false);
    assert_eq!(run(true), fresh);
    // The fresh traces are the ones the program implies:
    // (global addrs, shared addrs, width, is_store, exec_mask).
    let shape: Vec<_> = fresh
        .iter()
        .map(|(_, t)| {
            (
                t.global_addrs.len(),
                t.shared_addrs.len(),
                t.width,
                t.is_store,
                t.exec_mask,
            )
        })
        .collect();
    let alu = (0, 0, 0, false, u32::MAX);
    let control = (0, 0, 0, false, 0);
    assert_eq!(
        shape,
        [
            alu,
            alu,
            alu,
            alu,
            alu,
            (32, 0, 4, true, u32::MAX),  // STG
            (0, 32, 4, false, u32::MAX), // LDS
            alu,
            (0, 0, 4, false, 0), // @P0 LDG, every lane predicated off
            control,             // BRA
            control,             // EXIT
        ]
    );
    assert_eq!(fresh.last().unwrap().0, StepEvent::Exited);
}

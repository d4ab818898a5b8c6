//! The timing slice: the part of a kernel a timing run carries out.
//!
//! The wave loop reads three things of a warp's architectural state: the
//! addresses its memory accesses touch (bank conflicts, coalescing, the
//! caches), the guards of those accesses, and the predicates that steer its
//! branches and exits. Everything else a kernel computes — a Winograd main
//! loop's FFMA accumulators, the values its loads bring in and its stores
//! write out — changes no cycle, no address and no counter. A timing run
//! therefore executes only the instructions whose data can reach one of
//! those reads, and the rest with [`Effects::NoData`]: their PC advances, a
//! memory access still computes, checks and traces its addresses, and
//! nothing else happens. Faults, divergence and every timing number are
//! those of full execution; what the memory holds afterwards is not.
//!
//! [`timing_slice`] finds that set with a backward liveness pass over the
//! kernel's control-flow graph, per definition rather than per register (a
//! register that is first a load destination and later an address base
//! keeps only its later definition):
//!
//! * the roots are the address registers and guard of every memory access
//!   and the guard of every branch and exit;
//! * an instruction is in the slice when a location it writes is live after
//!   it, and then its operands and guard are live before it;
//! * a guarded definition does not kill (the lanes it skips keep the older
//!   value), and a guarded `BRA` has both edges;
//! * a load moves data only when a register it writes is live; a load that
//!   does pulls every store to its memory space into the slice, since any of
//!   them may have written what it reads, and the pass repeats until no
//!   further space joins.
//!
//! Lanes communicate only through memory (the ISA has no shuffles), so the
//! per-lane control-flow paths this pass covers are every path a lane can
//! take, whatever the warp's divergence. Strict writeback
//! ([`crate::TimingOptions::strict_writeback`]) validates data, so it
//! executes every instruction in full, as the functional launchers do.

use sass::isa::{Instruction, MemSpace, Op};
use sass::reg::{Pred, Reg};

use crate::exec::Effects;

/// A set of registers (`R0`–`R254` at bits 0–254) and predicates (`P0`–`P6`
/// at bits 256–262). `RZ` and `PT` never enter: they hold no value.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
struct Locs([u64; 5]);

impl Locs {
    fn add(&mut self, bit: usize) {
        self.0[bit / 64] |= 1 << (bit % 64);
    }

    /// `n` consecutive registers from `r` (a wide operand), saturating at
    /// `R254` like [`Reg::offset`].
    fn regs(&mut self, r: Reg, n: u8) {
        for i in 0..n {
            let r = r.offset(i);
            if !r.is_rz() {
                self.add(r.0 as usize);
            }
        }
    }

    fn pred(&mut self, p: Pred) {
        if !p.is_pt() {
            self.add(256 + p.0 as usize);
        }
    }

    /// The predicates whose bits `mask` sets (`P2R`/`R2P` operands).
    fn preds(&mut self, mask: u32) {
        for p in 0..7 {
            if mask >> p & 1 != 0 {
                self.pred(Pred(p));
            }
        }
    }

    fn or(self, o: Locs) -> Locs {
        Locs(std::array::from_fn(|i| self.0[i] | o.0[i]))
    }

    fn minus(self, o: Locs) -> Locs {
        Locs(std::array::from_fn(|i| self.0[i] & !o.0[i]))
    }

    fn meets(self, o: Locs) -> bool {
        self.0.iter().zip(o.0).any(|(a, b)| a & b != 0)
    }
}

/// How an instruction joins the slice.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Arithmetic, moves, predicate ops: in the slice iff a result is live.
    Data,
    /// Moves data iff a register it loads is live.
    Load(MemSpace),
    /// Moves data iff a load of its space moves data.
    Store(MemSpace),
    /// Branches, exits and barriers: always carried out.
    Control,
}

/// One instruction's reads and writes, split by when the slice needs them.
struct Footprint {
    kind: Kind,
    /// Locations written.
    defs: Locs,
    /// Every executing lane's write replaces the old value: the instruction
    /// is unguarded.
    kills: bool,
    /// Read at every issue: a memory access's address registers and guard,
    /// a branch's or exit's guard.
    always: Locs,
    /// Read when the instruction's data is needed: operands, stored data and
    /// the guard of a data instruction.
    data: Locs,
}

fn footprint(inst: &Instruction) -> Footprint {
    let mut f = Footprint {
        kind: Kind::Data,
        defs: Locs::default(),
        kills: inst.guard.is_always(),
        always: Locs::default(),
        data: Locs::default(),
    };
    let mut guard = Locs::default();
    guard.pred(inst.guard.pred);
    // A global address is a 64-bit register pair, a shared one one register.
    let address = |space: MemSpace, base: Reg| {
        let mut a = guard;
        a.regs(base, if space == MemSpace::Global { 2 } else { 1 });
        a
    };
    match inst.op {
        Op::Ld {
            space,
            width,
            d,
            addr,
        } => {
            f.kind = Kind::Load(space);
            f.always = address(space, addr.base);
            f.defs.regs(d, width.regs());
        }
        Op::St {
            space,
            width,
            addr,
            src,
        } => {
            f.kind = Kind::Store(space);
            f.always = address(space, addr.base);
            f.data.regs(src, width.regs());
        }
        Op::Bra { .. } | Op::Exit => {
            f.kind = Kind::Control;
            f.always = guard;
        }
        // `BAR.SYNC` ignores its guard.
        Op::BarSync => f.kind = Kind::Control,
        op => {
            for (_, r) in op.src_regs() {
                f.data.regs(r, 1);
            }
            if let Some((d, n)) = op.dst_regs() {
                f.defs.regs(d, n);
            }
            match op {
                Op::Fsetp { p, combine, .. } | Op::Isetp { p, combine, .. } => {
                    f.defs.pred(p);
                    f.data.pred(combine.pred);
                }
                Op::Sel { p, .. } => f.data.pred(p.pred),
                Op::P2r { mask, .. } => f.data.preds(mask),
                Op::R2p { mask, .. } => f.defs.preds(mask),
                _ => {}
            }
            f.data = f.data.or(guard);
        }
    }
    f
}

/// Control-flow successors of `pc`, at most two. An index past the end of
/// the program (`usize::MAX` for none) is no successor: a warp that falls
/// off the end faults.
fn successors(pc: usize, inst: &Instruction) -> [usize; 2] {
    let guarded = !inst.guard.is_always();
    let next = pc + 1;
    match inst.op {
        Op::Bra { target } if guarded => [target as usize, next],
        Op::Bra { target } => [target as usize, usize::MAX],
        Op::Exit if guarded => [next, usize::MAX],
        Op::Exit => [usize::MAX; 2],
        _ => [next, usize::MAX],
    }
}

fn space_bit(space: MemSpace) -> u8 {
    match space {
        MemSpace::Shared => 1,
        MemSpace::Global => 2,
    }
}

/// The liveness fixed point, given the memory spaces (`moving`, bits of
/// [`space_bit`]) whose stores move data: whether each instruction is in
/// the slice.
fn solve(code: &[Footprint], succ: &[[usize; 2]], moving: u8) -> Vec<bool> {
    let n = code.len();
    let mut live_in = vec![Locs::default(); n];
    let mut needed = vec![false; n];
    // Reverse sweeps until nothing changes: live sets only grow, so the
    // sweeps reach the least fixed point.
    let mut changed = true;
    while changed {
        changed = false;
        for pc in (0..n).rev() {
            let out = succ[pc]
                .iter()
                .filter(|&&s| s < n)
                .fold(Locs::default(), |out, &s| out.or(live_in[s]));
            let f = &code[pc];
            let need = match f.kind {
                Kind::Data | Kind::Load(_) => out.meets(f.defs),
                Kind::Store(space) => moving & space_bit(space) != 0,
                Kind::Control => true,
            };
            let mut live = if f.kills { out.minus(f.defs) } else { out };
            live = live.or(f.always);
            if need {
                live = live.or(f.data);
            }
            needed[pc] = need;
            if live != live_in[pc] {
                live_in[pc] = live;
                changed = true;
            }
        }
    }
    needed
}

/// Per instruction of `insts`, what a timing run carries out of it:
/// [`Effects::All`] for the timing slice (see the module docs), and
/// [`Effects::NoData`] for the rest.
pub fn timing_slice(insts: &[Instruction]) -> Vec<Effects> {
    let code: Vec<Footprint> = insts.iter().map(footprint).collect();
    let succ: Vec<[usize; 2]> = insts
        .iter()
        .enumerate()
        .map(|(pc, inst)| successors(pc, inst))
        .collect();
    let mut moving = 0u8;
    loop {
        let needed = solve(&code, &succ, moving);
        let loading = code
            .iter()
            .zip(&needed)
            .fold(0, |bits, (f, &need)| match f.kind {
                Kind::Load(space) if need => bits | space_bit(space),
                _ => bits,
            });
        if loading & !moving == 0 {
            return needed
                .into_iter()
                .map(|need| if need { Effects::All } else { Effects::NoData })
                .collect();
        }
        moving |= loading;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sass::assemble;

    /// The slice of a kernel, as the indices of the instructions a timing
    /// run carries out in full.
    fn full(src: &str) -> Vec<usize> {
        let m = assemble(src).unwrap();
        timing_slice(&m.insts)
            .iter()
            .enumerate()
            .filter(|(_, &e)| e == Effects::All)
            .map(|(pc, _)| pc)
            .collect()
    }

    /// An FFMA accumulation that only a store reads is outside the slice,
    /// and so is the store's data; the address arithmetic and the loop
    /// counter stay.
    #[test]
    fn accumulation_stored_by_stg_is_skipped() {
        let src = r#"
.kernel acc
.params 8
    MOV R10, c[0x0][0x160];
    MOV R11, c[0x0][0x164];
    S2R R0, SR_TID.X;
    IMAD.WIDE.U32 R2, R0, 0x4, R10;
    MOV R4, 0x0;
    MOV R20, 0x10;
LOOP:
    FFMA R4, R4, R4, R4;
    IADD3 R20, R20, -1, RZ;
    ISETP.GT.AND P0, PT, R20, 0, PT;
    @P0 BRA `(LOOP);
    STG.E [R2], R4;
    EXIT;
"#;
        // MOV R4 (4) and the FFMA (6) are skipped; the STG (10) stays in
        // as a memory access but moves no data.
        assert_eq!(full(src), vec![0, 1, 2, 3, 5, 7, 8, 9, 11]);
    }

    /// `LDG R4, [R4]`: each hop's loaded value is the next hop's address, so
    /// the load keeps its data.
    #[test]
    fn pointer_chase_keeps_the_load() {
        let src = r#"
.kernel chase
.params 8
    MOV R4, c[0x0][0x160];
    MOV R5, c[0x0][0x164];
    MOV R20, 0x8;
LOOP:
    LDG.E R4, [R4];
    IADD3 R20, R20, -1, RZ;
    ISETP.GT.AND P0, PT, R20, 0, PT;
    @P0 BRA `(LOOP);
    EXIT;
"#;
        assert_eq!(full(src), vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    /// An `FSETP` on a loaded float that guards a `BRA` keeps the load, its
    /// address and the compare; the FADD that only feeds a store does not.
    #[test]
    fn loaded_branch_predicate_keeps_the_load_and_producers() {
        let src = r#"
.kernel branchy
.params 8
    MOV R10, c[0x0][0x160];
    MOV R11, c[0x0][0x164];
    LDG.E R4, [R10];
    FADD R6, R4, R4;
    FSETP.GT.AND P0, PT, R4, RZ, PT;
    @P0 BRA `(DONE);
    STG.E [R10], R6;
DONE:
    EXIT;
"#;
        // The live load makes every global store move data, so the STG (6)
        // and the FADD that feeds it (3) are in; without the store, the
        // FADD is out.
        assert_eq!(full(src), vec![0, 1, 2, 3, 4, 5, 6, 7]);
        let without_store = src.replace("    STG.E [R10], R6;\n", "");
        assert_eq!(full(&without_store), vec![0, 1, 2, 4, 5, 6]);
    }

    /// An index written by `STS` and read back by `LDS` as an address keeps
    /// the store's data and what it stores.
    #[test]
    fn shared_index_round_trip_keeps_the_sts_data() {
        let src = r#"
.kernel idx
.smem 256
.params 8
    S2R R0, SR_TID.X;
    SHF.L.U32 R1, R0, 0x2, RZ;
    IADD3 R2, R1, 0x4, RZ;
    STS [R1], R2;
    BAR.SYNC 0x0;
    LDS R3, [R1];
    LDS R5, [R3];
    FADD R6, R5, R5;
    MOV R10, c[0x0][0x160];
    MOV R11, c[0x0][0x164];
    STG.E [R10], R6;
    EXIT;
"#;
        // The LDS of R3 (5) feeds an address, so it moves data, and so do
        // the STS (3) and the IADD3 (2) that computes what it stores. The
        // LDS of R5 (6) moves none: only the FADD (7) reads it, and only the
        // global store, which moves no data, reads the FADD.
        assert_eq!(full(src), vec![0, 1, 2, 3, 4, 5, 8, 9, 11]);
    }

    /// A register that is first a load destination and later an address
    /// base keeps only the later definition.
    #[test]
    fn reused_register_keeps_only_the_later_definition() {
        let src = r#"
.kernel reuse
.params 8
    MOV R10, c[0x0][0x160];
    MOV R11, c[0x0][0x164];
    LDG.E R4, [R10];
    FADD R8, R4, R4;
    STG.E [R10], R8;
    MOV R4, c[0x0][0x160];
    MOV R5, c[0x0][0x164];
    LDG.E R6, [R4];
    EXIT;
"#;
        // The first LDG (2) moves no data and the FADD (3) is out; the MOVs
        // that redefine R4:R5 as an address (5, 6) are in.
        assert_eq!(full(src), vec![0, 1, 5, 6, 8]);
    }

    /// Guards: a guarded definition does not kill, so the older value stays
    /// live above it; a predicate that guards a memory access is a root.
    #[test]
    fn guarded_definitions_do_not_kill() {
        let src = r#"
.kernel guard
.params 8
    S2R R0, SR_TID.X;
    ISETP.LT.U32.AND P1, PT, R0, 0x10, PT;
    MOV R10, c[0x0][0x160];
    MOV R11, c[0x0][0x164];
    @P1 MOV R10, RZ;
    @!P1 LDG.E R4, [R10];
    EXIT;
"#;
        assert_eq!(full(src), vec![0, 1, 2, 3, 4, 6]);
    }
}

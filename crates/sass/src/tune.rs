//! Schedule autotuner: search layer over control codes and instruction order.
//!
//! The paper's headline kernel is *hand*-tuned at the SASS level — stall
//! counts, yield flags, scoreboard barriers, reuse flags and instruction
//! placement (§5.1.4, §6). This module automates that search: it degrades a
//! hand-tuned stream to a naive legal baseline ([`detune`]) and then explores
//! the schedule space with greedy per-region stall tightening followed by
//! simulated annealing, using an externally supplied objective (the cycle
//! simulator, via `kernels::search`).
//!
//! Everything a move may produce is gated by a two-level **legality oracle**:
//!
//! 1. a *semantic dependence check* ([`must_precede`]) for reorders —
//!    register RAW/WAR/WAW including wide destinations, predicate defs/uses
//!    (which `Op::dst_regs`/`Op::src_regs` deliberately exclude),
//!    conservative per-address-space memory ordering, and scoreboard
//!    producer/consumer pairing; control flow (`BRA`/`EXIT`/`BAR.SYNC`)
//!    never moves;
//! 2. the whole-stream schedule lint ([`crate::lint::lint`]) — every
//!    candidate handed to the objective lints **clean**, with no repair, so
//!    [`crate::lint::fix_schedule_marked`] is a fixpoint on it (pinned by
//!    `sass/tests/lint_properties.rs`).
//!
//! Moves only touch control codes and intra-block order; no instruction is
//! ever inserted or removed, so region markers, register budget and the
//! functional meaning of the stream are invariant. A dependence-legal
//! reorder cannot even change rounding: any pair the oracle allows to swap
//! shares no registers, so every FFMA accumulation chain keeps its order.

use crate::ctrl::Ctrl;
use crate::isa::{Instruction, MemSpace, Op};
use crate::lint::{block_leaders, fixed_latency, lint};
use crate::reg::Reg;
use tensor::XorShiftRng;

// ---- naive baseline ---------------------------------------------------------

/// Degrade a schedule to the conservative naive-legal baseline the tuner
/// starts from: every fixed-latency producer stalls for its full result
/// latency (as an unscheduled compiler would), all operand-reuse flags are
/// dropped, and every yield flag is set. Scoreboard structure (write/read
/// barriers and wait masks) is kept — allocating scoreboards is the
/// assembler's job, not the scheduler's. Stalls only ever go *up*, so a
/// lint-clean stream stays lint-clean, and nothing here has functional
/// meaning: instruction count, registers and results are unchanged.
pub fn detune(insts: &mut [Instruction]) {
    for inst in insts {
        if let Some(lat) = fixed_latency(&inst.op) {
            inst.ctrl.stall = inst.ctrl.stall.max(lat.min(15) as u8);
        }
        inst.ctrl.reuse = 0;
        inst.ctrl.yield_flag = true;
    }
}

// ---- semantic dependence oracle ---------------------------------------------

/// Read/write footprint of one instruction over the register file, the
/// predicate file and the two memory spaces. 256-bit register sets keep the
/// pairwise test branch-free.
#[derive(Clone, Copy, Default)]
struct Effects {
    reg_read: [u64; 4],
    reg_write: [u64; 4],
    /// Predicate bits 0–6 (`PT` never appears).
    pred_read: u8,
    pred_write: u8,
    /// Bit 0 = shared, bit 1 = global.
    mem_read: u8,
    mem_write: u8,
    /// Control flow / barrier: pinned in place, conflicts with everything.
    fixed: bool,
}

fn set_reg(s: &mut [u64; 4], r: Reg) {
    if !r.is_rz() {
        s[(r.0 >> 6) as usize] |= 1 << (r.0 & 63);
    }
}

fn overlap(a: &[u64; 4], b: &[u64; 4]) -> bool {
    a.iter().zip(b).any(|(x, y)| x & y != 0)
}

fn mem_bit(space: MemSpace) -> u8 {
    match space {
        MemSpace::Shared => 1,
        MemSpace::Global => 2,
    }
}

fn effects(inst: &Instruction) -> Effects {
    let mut e = Effects::default();
    for (_, r) in inst.op.src_regs() {
        set_reg(&mut e.reg_read, r);
    }
    if let Some((d, n)) = inst.op.dst_regs() {
        for j in 0..n {
            set_reg(&mut e.reg_write, d.offset(j));
        }
    }
    // Predicate defs/uses are not part of dst_regs/src_regs (those describe
    // the *register file* for bank and scoreboard analysis) — handle them
    // here so guarded code and the P2R/R2P idiom reorder safely.
    if !inst.guard.pred.is_pt() {
        e.pred_read |= 1 << inst.guard.pred.0;
    }
    match inst.op {
        Op::Fsetp { p, combine, .. } => {
            e.pred_write |= 1 << p.0;
            if !combine.pred.is_pt() {
                e.pred_read |= 1 << combine.pred.0;
            }
        }
        Op::Isetp { p, combine, .. } => {
            e.pred_write |= 1 << p.0;
            if !combine.pred.is_pt() {
                e.pred_read |= 1 << combine.pred.0;
            }
        }
        Op::Sel { p, .. } if !p.pred.is_pt() => e.pred_read |= 1 << p.pred.0,
        Op::R2p { mask, .. } => e.pred_write |= (mask as u8) & 0x7f,
        Op::P2r { .. } => e.pred_read |= 0x7f,
        Op::Ld { space, .. } => e.mem_read |= mem_bit(space),
        Op::St { space, .. } => e.mem_write |= mem_bit(space),
        Op::Bra { .. } | Op::Exit | Op::BarSync => e.fixed = true,
        _ => {}
    }
    e
}

/// Scoreboards this control word signals (write or read barrier).
fn sb_signals(c: &Ctrl) -> u8 {
    let mut m = 0u8;
    if let Some(b) = c.write_bar {
        m |= 1 << b;
    }
    if let Some(b) = c.read_bar {
        m |= 1 << b;
    }
    m
}

/// Semantic dependence test: must `a` stay before `b` when they are
/// adjacent in program order? Conservative in every direction:
///
/// * register RAW / WAR / WAW (wide destinations and pairs included),
/// * predicate RAW / WAR / WAW (guards, `SETP` combine inputs, `SEL`
///   selectors, `P2R`/`R2P` as whole-file accesses),
/// * memory ordering per address space (loads commute, everything else
///   keeps order; cross-space accesses are independent),
/// * scoreboard structure: a signal and a wait on the same scoreboard keep
///   their order, as do two signals of the same scoreboard,
/// * control flow and barriers never move.
pub fn must_precede(a: &Instruction, b: &Instruction) -> bool {
    let ea = effects(a);
    let eb = effects(b);
    if ea.fixed || eb.fixed {
        return true;
    }
    if overlap(&ea.reg_write, &eb.reg_read)
        || overlap(&ea.reg_write, &eb.reg_write)
        || overlap(&ea.reg_read, &eb.reg_write)
    {
        return true;
    }
    if ea.pred_write & (eb.pred_read | eb.pred_write) != 0 || ea.pred_read & eb.pred_write != 0 {
        return true;
    }
    if ea.mem_write & (eb.mem_read | eb.mem_write) != 0 || ea.mem_read & eb.mem_write != 0 {
        return true;
    }
    let (sig_a, sig_b) = (sb_signals(&a.ctrl), sb_signals(&b.ctrl));
    sig_a & b.ctrl.wait_mask != 0 || a.ctrl.wait_mask & sig_b != 0 || sig_a & sig_b != 0
}

// ---- block helpers ----------------------------------------------------------

/// Bounds `[start, end)` of the basic block containing `pc`.
fn block_of(leaders: &[bool], pc: usize) -> (usize, usize) {
    let mut s = pc;
    while s > 0 && !leaders[s] {
        s -= 1;
    }
    let mut e = pc + 1;
    while e < leaders.len() && !leaders[e] {
        e += 1;
    }
    (s, e)
}

/// Lint one block in isolation. The slice is copied and any branch target is
/// pointed past the end so the linter's leader computation cannot split the
/// block at a coincidental in-slice index (a block contains at most one
/// trailing `BRA`, whose register effects are nil).
fn block_clean(insts: &[Instruction], start: usize, end: usize) -> bool {
    let mut scratch: Vec<Instruction> = insts[start..end].to_vec();
    let n = scratch.len() as u32;
    for inst in &mut scratch {
        if let Op::Bra { target } = &mut inst.op {
            *target = n;
        }
    }
    lint(&scratch).is_empty()
}

/// First source register per operand slot — what a `.reuse` flag latches.
fn slot_first(inst: &Instruction) -> [Option<Reg>; 4] {
    let mut first = [None; 4];
    for (slot, r) in inst.op.src_regs() {
        let f = &mut first[slot as usize];
        if f.is_none() {
            *f = Some(r);
        }
    }
    first
}

// ---- moves ------------------------------------------------------------------

/// The kinds of schedule move the tuner searches over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MoveKind {
    /// Lower a stall count by one (floor 1).
    TightenStall,
    /// Raise a stall count by one (escape hatch for the annealer).
    RelaxStall,
    /// Set an operand-reuse flag the next instruction can consume.
    SetReuse,
    /// Drop one reuse flag.
    ClearReuse,
    /// Set the yield flag (stay on this warp; enables reuse latching).
    SetYield,
    /// Clear the yield flag (prefer switching warps).
    ClearYield,
    /// Move a scoreboard signal to a free slot and extend dependent waits.
    ReassignBar,
    /// Swap two adjacent, independent instructions within a block.
    SwapDown,
}

impl MoveKind {
    pub const ALL: [MoveKind; 8] = [
        MoveKind::TightenStall,
        MoveKind::RelaxStall,
        MoveKind::SetReuse,
        MoveKind::ClearReuse,
        MoveKind::SetYield,
        MoveKind::ClearYield,
        MoveKind::ReassignBar,
        MoveKind::SwapDown,
    ];

    pub fn name(self) -> &'static str {
        match self {
            MoveKind::TightenStall => "tighten_stall",
            MoveKind::RelaxStall => "relax_stall",
            MoveKind::SetReuse => "set_reuse",
            MoveKind::ClearReuse => "clear_reuse",
            MoveKind::SetYield => "set_yield",
            MoveKind::ClearYield => "clear_yield",
            MoveKind::ReassignBar => "reassign_bar",
            MoveKind::SwapDown => "swap",
        }
    }

    /// The family this kind belongs to for policy purposes.
    pub fn family(self) -> MoveFamily {
        match self {
            MoveKind::TightenStall | MoveKind::RelaxStall => MoveFamily::Stall,
            MoveKind::SetReuse | MoveKind::ClearReuse => MoveFamily::Reuse,
            MoveKind::SetYield | MoveKind::ClearYield => MoveFamily::Yield,
            MoveKind::ReassignBar => MoveFamily::Barrier,
            MoveKind::SwapDown => MoveFamily::Reorder,
        }
    }
}

/// The five move families the adaptive policy reasons over. Kinds within a
/// family share an acceptance-rate estimate (tighten/relax are two arms of
/// the same knob, not independent behaviours).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MoveFamily {
    Stall,
    Reuse,
    Yield,
    Barrier,
    Reorder,
}

impl MoveFamily {
    pub const COUNT: usize = 5;
    pub const ALL: [MoveFamily; 5] = [
        MoveFamily::Stall,
        MoveFamily::Reuse,
        MoveFamily::Yield,
        MoveFamily::Barrier,
        MoveFamily::Reorder,
    ];

    pub fn name(self) -> &'static str {
        match self {
            MoveFamily::Stall => "stall",
            MoveFamily::Reuse => "reuse",
            MoveFamily::Yield => "yield",
            MoveFamily::Barrier => "barrier",
            MoveFamily::Reorder => "reorder",
        }
    }

    fn index(self) -> usize {
        match self {
            MoveFamily::Stall => 0,
            MoveFamily::Reuse => 1,
            MoveFamily::Yield => 2,
            MoveFamily::Barrier => 3,
            MoveFamily::Reorder => 4,
        }
    }
}

/// Relative priority of each move family, normally derived from the
/// bottleneck classification (`perfmodel::move_weights`): a latency-bound
/// region wants stall work, a bank-conflicted compute-bound region wants
/// reuse flags, and so on. Weights are relative; zero disables a family.
#[derive(Clone, Copy, Debug)]
pub struct MoveWeights {
    pub stall: f64,
    pub reuse: f64,
    pub yld: f64,
    pub barrier: f64,
    pub reorder: f64,
}

impl Default for MoveWeights {
    fn default() -> Self {
        MoveWeights {
            stall: 1.0,
            reuse: 1.0,
            yld: 1.0,
            barrier: 1.0,
            reorder: 1.0,
        }
    }
}

impl MoveWeights {
    /// Weight of one family.
    pub fn family(&self, f: MoveFamily) -> f64 {
        match f {
            MoveFamily::Stall => self.stall,
            MoveFamily::Reuse => self.reuse,
            MoveFamily::Yield => self.yld,
            MoveFamily::Barrier => self.barrier,
            MoveFamily::Reorder => self.reorder,
        }
    }
}

// ---- adaptive proposal policy ----------------------------------------------

/// Exponential-moving-average coefficient for acceptance-rate tracking.
const ADAPT_ALPHA: f64 = 0.1;
/// Exploration floor: a cell whose acceptance rate decays to zero still
/// gets proposed with `FLOOR / (FLOOR + 1)` of its prior weight, so the
/// policy never starves a family the cooling schedule might revive.
const ADAPT_FLOOR: f64 = 0.25;
/// Optimistic initial acceptance estimate (before any observations).
const ADAPT_INIT: f64 = 0.5;

/// One (region × family) proposal cell: a static prior (bottleneck- and
/// profile-derived) times a learned acceptance-rate multiplier.
#[derive(Clone, Copy, Debug)]
struct AdaptCell {
    prior: f64,
    rate: f64,
}

/// Per-region × per-family bandit-style proposal policy. Each anneal
/// proposal draws a cell with probability proportional to
/// `prior(r, f) · (FLOOR + rate(r, f))`, where `rate` is an EMA of that
/// cell's acceptance outcomes (illegal / inapplicable / failed proposals
/// count as rejections — budget spent is budget spent). Updates depend only
/// on the owning chain's own outcomes, so the policy is deterministic for a
/// fixed seed regardless of thread count.
#[derive(Clone, Debug)]
pub struct AdaptivePolicy {
    cells: Vec<[AdaptCell; MoveFamily::COUNT]>,
}

impl AdaptivePolicy {
    /// Build priors from per-region family weights scaled by region weight.
    pub fn new(region_weights: &[f64], family_weights: &[MoveWeights]) -> AdaptivePolicy {
        assert_eq!(region_weights.len(), family_weights.len());
        let cells = region_weights
            .iter()
            .zip(family_weights)
            .map(|(&rw, fw)| {
                let mut row = [AdaptCell {
                    prior: 0.0,
                    rate: ADAPT_INIT,
                }; MoveFamily::COUNT];
                for f in MoveFamily::ALL {
                    row[f.index()].prior = rw.max(0.0) * fw.family(f).max(0.0);
                }
                row
            })
            .collect();
        AdaptivePolicy { cells }
    }

    fn weight(&self, r: usize, f: usize) -> f64 {
        let c = &self.cells[r][f];
        c.prior * (ADAPT_FLOOR + c.rate)
    }

    /// Draw a (region, family) cell by roulette over current cell weights.
    fn pick(&self, rng: &mut XorShiftRng) -> (usize, MoveFamily) {
        let total: f64 = (0..self.cells.len())
            .flat_map(|r| (0..MoveFamily::COUNT).map(move |f| (r, f)))
            .map(|(r, f)| self.weight(r, f))
            .sum();
        if total <= 0.0 {
            let r = rng.gen_index(self.cells.len());
            return (r, MoveFamily::ALL[rng.gen_index(MoveFamily::COUNT)]);
        }
        let mut x = rng.next_f32() as f64 * total;
        for r in 0..self.cells.len() {
            for f in MoveFamily::ALL {
                x -= self.weight(r, f.index());
                if x <= 0.0 {
                    return (r, f);
                }
            }
        }
        (self.cells.len() - 1, MoveFamily::Reorder)
    }

    fn update(&mut self, r: usize, f: MoveFamily, accepted: bool) {
        let c = &mut self.cells[r][f.index()];
        let x = if accepted { 1.0 } else { 0.0 };
        c.rate += ADAPT_ALPHA * (x - c.rate);
    }

    /// Learned acceptance rates, one row per region in `MoveFamily::ALL`
    /// order (for reporting).
    pub fn rates(&self) -> Vec<[f64; MoveFamily::COUNT]> {
        self.cells
            .iter()
            .map(|row| {
                let mut out = [0.0; MoveFamily::COUNT];
                for f in 0..MoveFamily::COUNT {
                    out[f] = row[f].rate;
                }
                out
            })
            .collect()
    }
}

/// [`Tuner::trajectory`] keeps every `TRAJ_EVERY`th accepted move besides
/// every strict improvement — enough to plot convergence without
/// tracking-file bloat.
const TRAJ_EVERY: u64 = 16;

/// Apply one move at `pc`, mutating `insts`/`perm` in place. Returns `false`
/// (stream untouched except for an undone probe) when the move is
/// inapplicable or fails the *semantic* legality checks; the caller must
/// still verify the whole stream lints clean before accepting.
fn apply_move(
    insts: &mut [Instruction],
    perm: &mut [u32],
    leaders: &[bool],
    kind: MoveKind,
    pc: usize,
    rng: &mut XorShiftRng,
) -> bool {
    match kind {
        MoveKind::TightenStall => {
            if insts[pc].ctrl.stall < 2 {
                return false;
            }
            insts[pc].ctrl.stall -= 1;
            true
        }
        MoveKind::RelaxStall => {
            if insts[pc].ctrl.stall >= 15 {
                return false;
            }
            insts[pc].ctrl.stall += 1;
            true
        }
        MoveKind::SetYield => {
            if insts[pc].ctrl.yield_flag {
                return false;
            }
            insts[pc].ctrl.yield_flag = true;
            true
        }
        MoveKind::ClearYield => {
            if !insts[pc].ctrl.yield_flag {
                return false;
            }
            insts[pc].ctrl.yield_flag = false;
            true
        }
        MoveKind::ClearReuse => {
            let reuse = insts[pc].ctrl.reuse;
            if reuse == 0 {
                return false;
            }
            let set: Vec<u8> = (0..4).filter(|s| reuse & (1 << s) != 0).collect();
            insts[pc].ctrl.reuse &= !(1 << set[rng.gen_index(set.len())]);
            true
        }
        MoveKind::SetReuse => {
            // Hardware-strict: flag slot `s` of `pc` only when the *next*
            // instruction reads the same register in the same slot, `pc`
            // itself does not overwrite it (the cache would hold the stale
            // pre-write value on silicon), and the yield flag is set (a
            // cleared flag disables the latch, §5.1.4).
            if pc + 1 >= insts.len() || leaders[pc + 1] || !insts[pc].ctrl.yield_flag {
                return false;
            }
            let here = slot_first(&insts[pc]);
            let next = slot_first(&insts[pc + 1]);
            let dst = {
                let mut d = [0u64; 4];
                if let Some((r, n)) = insts[pc].op.dst_regs() {
                    for j in 0..n {
                        set_reg(&mut d, r.offset(j));
                    }
                }
                d
            };
            let cands: Vec<u8> = (0..4u8)
                .filter(|&s| {
                    insts[pc].ctrl.reuse & (1 << s) == 0
                        && here[s as usize].is_some()
                        && here[s as usize] == next[s as usize]
                        && {
                            let mut probe = [0u64; 4];
                            set_reg(&mut probe, here[s as usize].unwrap());
                            !overlap(&dst, &probe)
                        }
                })
                .collect();
            if cands.is_empty() {
                return false;
            }
            insts[pc].ctrl.reuse |= 1 << cands[rng.gen_index(cands.len())];
            true
        }
        MoveKind::SwapDown => {
            if pc + 1 >= insts.len() || leaders[pc + 1] {
                return false;
            }
            if must_precede(&insts[pc], &insts[pc + 1]) {
                return false;
            }
            insts.swap(pc, pc + 1);
            perm.swap(pc, pc + 1);
            true
        }
        MoveKind::ReassignBar => {
            let (bs, be) = block_of(leaders, pc);
            let ctrl = insts[pc].ctrl;
            // Pick which signal to move: prefer the write barrier, fall back
            // to the read barrier.
            let (is_write, b) = match (ctrl.write_bar, ctrl.read_bar) {
                (Some(w), Some(r)) => {
                    if rng.gen_index(2) == 0 {
                        (true, w)
                    } else {
                        (false, r)
                    }
                }
                (Some(w), None) => (true, w),
                (None, Some(r)) => (false, r),
                (None, None) => return false,
            };
            // A destination scoreboard nothing else in the block touches.
            let mut used: u8 = ctrl.wait_mask | sb_signals(&ctrl);
            for (j, inst) in insts[bs..be].iter().enumerate() {
                if bs + j != pc {
                    used |= sb_signals(&inst.ctrl) | inst.ctrl.wait_mask;
                }
            }
            let free: Vec<u8> = (0..6u8).filter(|&x| used & (1 << x) == 0).collect();
            if free.is_empty() {
                return false;
            }
            let nb = free[rng.gen_index(free.len())];
            // Registers the old barrier protected: results for a write
            // barrier, consumed sources for a read barrier.
            let mut prot = [0u64; 4];
            if is_write {
                if let Some((d, n)) = insts[pc].op.dst_regs() {
                    for j in 0..n {
                        set_reg(&mut prot, d.offset(j));
                    }
                }
                insts[pc].ctrl.write_bar = Some(nb);
            } else {
                for (_, r) in insts[pc].op.src_regs() {
                    set_reg(&mut prot, r);
                }
                insts[pc].ctrl.read_bar = Some(nb);
            }
            // Re-point dependent waits in the rest of the block. The old bit
            // is kept (other producers may still signal it); extra waits are
            // legal, missing ones are what the lint gate would catch.
            for inst in insts[pc + 1..be].iter_mut() {
                if inst.ctrl.wait_mask & (1 << b) == 0 {
                    continue;
                }
                let ej = effects(inst);
                let needs = if is_write {
                    overlap(&prot, &ej.reg_read) || overlap(&prot, &ej.reg_write)
                } else {
                    overlap(&prot, &ej.reg_write)
                };
                if needs {
                    inst.ctrl.wait_mask |= 1 << nb;
                }
            }
            true
        }
    }
}

// ---- search driver ----------------------------------------------------------

/// A named instruction-index range the tuner biases its moves over
/// (mirrors `gpusim::Region`, which `sass` cannot depend on).
#[derive(Clone, Debug)]
pub struct TuneRegion {
    pub name: String,
    pub start: u32,
    pub end: u32,
}

/// One accepted move along the search trajectory.
#[derive(Clone, Debug, PartialEq)]
pub struct TrajPoint {
    /// Monotone step counter (greedy bundles and anneal steps share it).
    pub step: u64,
    pub kind: MoveKind,
    pub pc: u32,
    /// Index into the tuner's region list.
    pub region: usize,
    /// Objective value after accepting the move.
    pub cycles: u64,
}

/// Search counters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TuneStats {
    /// Anneal moves proposed.
    pub proposed: u64,
    /// Statically inapplicable proposals (move generator refused).
    pub inapplicable: u64,
    /// Proposals that applied but failed the whole-stream lint gate.
    pub illegal: u64,
    /// Objective evaluations requested (greedy bundles included).
    pub evals: u64,
    /// Objective evaluations that returned `None`.
    pub failed: u64,
    /// Accepted anneal moves.
    pub accepted: u64,
}

/// The annealing schedule-tuner. Owns the current and best-so-far candidate;
/// the objective is a caller-supplied closure from `(insts, perm)` to a cost
/// in simulated cycles (`None` = evaluation failed, proposal dropped), where
/// `perm[i]` names the baseline instruction now at position `i` — the handle
/// `gpusim::BatchTimer` uses to reuse decoded descriptors across candidates.
pub struct Tuner {
    /// Current candidate stream (always lints clean).
    pub insts: Vec<Instruction>,
    /// Position map: `perm[i]` = baseline index of `insts[i]`.
    pub perm: Vec<u32>,
    regions: Vec<TuneRegion>,
    leaders: Vec<bool>,
    rng: XorShiftRng,
    /// Move-family weights (see [`MoveWeights`]) — the prior for every
    /// region unless [`Tuner::region_priors`] is set.
    pub weights: MoveWeights,
    /// Per-region weights, same order as the region list.
    pub region_weights: Vec<f64>,
    /// Optional per-region family priors (same order as the region list),
    /// e.g. derived from profiled stall shares
    /// (`perfmodel::tunehint::region_move_weights`). Overrides `weights`.
    pub region_priors: Option<Vec<MoveWeights>>,
    /// The adaptive proposal policy; (re)built from the priors at
    /// [`Tuner::start_anneal`].
    pub policy: Option<AdaptivePolicy>,
    pub cur_cost: u64,
    pub best_insts: Vec<Instruction>,
    pub best_perm: Vec<u32>,
    pub best_cost: u64,
    pub stats: TuneStats,
    /// Accepted moves: every strict best-so-far improvement plus every
    /// 16th accepted move.
    pub trajectory: Vec<TrajPoint>,
    /// When nonzero, snapshot the current stream every N accepted moves
    /// (consumed by the differential functional tests).
    pub snapshot_every: u64,
    pub snapshots: Vec<Vec<Instruction>>,
    steps: u64,
    temp: f64,
    cooling: f64,
}

impl Tuner {
    /// Build a tuner over `base`, which must already lint clean — the tuner
    /// preserves that invariant for every candidate it evaluates.
    pub fn new(base: Vec<Instruction>, regions: Vec<TuneRegion>, seed: u64) -> Tuner {
        assert!(
            lint(&base).is_empty(),
            "tuner baseline must lint clean (run fix_schedule first)"
        );
        let leaders = block_leaders(&base);
        let n = base.len();
        let regions = if regions.is_empty() {
            vec![TuneRegion {
                name: "kernel".into(),
                start: 0,
                end: n as u32,
            }]
        } else {
            regions
        };
        let region_weights = vec![1.0; regions.len()];
        Tuner {
            insts: base.clone(),
            perm: (0..n as u32).collect(),
            regions,
            leaders,
            rng: XorShiftRng::new(seed),
            weights: MoveWeights::default(),
            region_weights,
            region_priors: None,
            policy: None,
            cur_cost: u64::MAX,
            best_insts: base,
            best_perm: (0..n as u32).collect(),
            best_cost: u64::MAX,
            stats: TuneStats::default(),
            trajectory: Vec::new(),
            snapshot_every: 0,
            snapshots: Vec::new(),
            steps: 0,
            temp: 0.0,
            cooling: 1.0,
        }
    }

    pub fn regions(&self) -> &[TuneRegion] {
        &self.regions
    }

    /// Evaluate the starting stream and seed current/best costs.
    pub fn prime<F>(&mut self, objective: &mut F) -> u64
    where
        F: FnMut(&[Instruction], &[u32]) -> Option<u64>,
    {
        self.stats.evals += 1;
        let c = objective(&self.insts, &self.perm).expect("baseline objective evaluation failed");
        self.cur_cost = c;
        self.best_cost = c;
        self.best_insts = self.insts.clone();
        self.best_perm = self.perm.clone();
        c
    }

    fn note_best(&mut self) {
        if self.cur_cost < self.best_cost {
            self.best_cost = self.cur_cost;
            self.best_insts = self.insts.clone();
            self.best_perm = self.perm.clone();
        }
    }

    /// Record an accepted move. Called after `cur_cost` is updated but
    /// before `note_best`, so `cur_cost < best_cost` identifies a strict
    /// best-so-far improvement — those are always kept; other accepted moves
    /// are subsampled to every `TRAJ_EVERY`th.
    fn record(&mut self, kind: MoveKind, pc: u32, region: usize) {
        if self.cur_cost < self.best_cost || self.stats.accepted.is_multiple_of(TRAJ_EVERY) {
            self.trajectory.push(TrajPoint {
                step: self.steps,
                kind,
                pc,
                region,
                cycles: self.cur_cost,
            });
        }
        if self.snapshot_every > 0 && self.stats.accepted.is_multiple_of(self.snapshot_every) {
            self.snapshots.push(self.insts.clone());
        }
    }

    /// Greedy per-region pass: lower every stall in each region to the
    /// minimum the block-local hazard analysis allows and keep the bundle
    /// when the objective improves. Regions are visited in weight order
    /// (hottest first), one evaluation per region bundle. Returns the number
    /// of adopted bundles.
    pub fn greedy_tighten<F>(&mut self, objective: &mut F) -> u32
    where
        F: FnMut(&[Instruction], &[u32]) -> Option<u64>,
    {
        assert!(self.cur_cost != u64::MAX, "prime() the tuner first");
        let mut order: Vec<usize> = (0..self.regions.len()).collect();
        order.sort_by(|&a, &b| {
            self.region_weights[b]
                .partial_cmp(&self.region_weights[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let mut adopted = 0u32;
        for r in order {
            let lo = self.regions[r].start as usize;
            let hi = (self.regions[r].end as usize).min(self.insts.len());
            let mut cand = self.insts.clone();
            let mut changed = false;
            for pc in lo..hi {
                while cand[pc].ctrl.stall >= 2 {
                    cand[pc].ctrl.stall -= 1;
                    let (bs, be) = block_of(&self.leaders, pc);
                    if block_clean(&cand, bs, be) {
                        changed = true;
                    } else {
                        cand[pc].ctrl.stall += 1;
                        break;
                    }
                }
            }
            if !changed {
                continue;
            }
            debug_assert!(lint(&cand).is_empty());
            self.stats.evals += 1;
            self.steps += 1;
            let Some(c) = objective(&cand, &self.perm) else {
                self.stats.failed += 1;
                continue;
            };
            if c < self.cur_cost {
                self.insts = cand;
                self.cur_cost = c;
                adopted += 1;
                self.record(MoveKind::TightenStall, lo as u32, r);
                self.note_best();
            }
        }
        adopted
    }

    /// Initialise the annealing temperature for a run of `budget` steps:
    /// starts at 1% of the current cost and cools geometrically to ~1e-5.
    /// Also builds the adaptive proposal policy from the current priors
    /// (`weights` / `region_weights` / `region_priors`) unless one is
    /// already installed.
    pub fn start_anneal(&mut self, budget: u64) {
        let scale = self.cur_cost.max(1) as f64;
        self.temp = scale * 0.01;
        let floor = scale * 1e-5;
        self.cooling = if budget > 0 {
            (floor / self.temp).powf(1.0 / budget as f64)
        } else {
            1.0
        };
        if self.policy.is_none() {
            let fams: Vec<MoveWeights> = match &self.region_priors {
                Some(p) => {
                    assert_eq!(p.len(), self.regions.len());
                    p.clone()
                }
                None => vec![self.weights; self.regions.len()],
            };
            self.policy = Some(AdaptivePolicy::new(&self.region_weights, &fams));
        }
    }

    /// Choose a concrete kind within a family. Intra-family ratios are
    /// fixed (the improving arm is favored 80/20; yield is symmetric) —
    /// cross-family balance is the adaptive policy's job.
    fn pick_kind_in(&mut self, fam: MoveFamily) -> MoveKind {
        match fam {
            MoveFamily::Stall => {
                if (self.rng.next_f32() as f64) < 0.8 {
                    MoveKind::TightenStall
                } else {
                    MoveKind::RelaxStall
                }
            }
            MoveFamily::Reuse => {
                if (self.rng.next_f32() as f64) < 0.8 {
                    MoveKind::SetReuse
                } else {
                    MoveKind::ClearReuse
                }
            }
            MoveFamily::Yield => {
                if (self.rng.next_f32() as f64) < 0.5 {
                    MoveKind::SetYield
                } else {
                    MoveKind::ClearYield
                }
            }
            MoveFamily::Barrier => MoveKind::ReassignBar,
            MoveFamily::Reorder => MoveKind::SwapDown,
        }
    }

    /// One simulated-annealing step: draw a (region, family) cell from the
    /// adaptive policy, propose, legality-gate, evaluate, Metropolis-accept,
    /// and feed the outcome back into the policy. Returns whether the move
    /// was accepted.
    pub fn anneal_step<F>(&mut self, objective: &mut F) -> bool
    where
        F: FnMut(&[Instruction], &[u32]) -> Option<u64>,
    {
        assert!(self.cur_cost != u64::MAX, "prime() the tuner first");
        let mut policy = self.policy.take().expect("start_anneal() the tuner first");
        self.steps += 1;
        self.stats.proposed += 1;

        let (r, fam) = policy.pick(&mut self.rng);
        let span = (self.regions[r].end.saturating_sub(self.regions[r].start)).max(1) as usize;
        let pc = (self.regions[r].start as usize + self.rng.gen_index(span))
            .min(self.insts.len().saturating_sub(1));
        let kind = self.pick_kind_in(fam);

        let mut accepted = false;
        let mut cand = self.insts.clone();
        let mut cperm = self.perm.clone();
        if !apply_move(
            &mut cand,
            &mut cperm,
            &self.leaders,
            kind,
            pc,
            &mut self.rng,
        ) {
            self.stats.inapplicable += 1;
        } else if !lint(&cand).is_empty() {
            self.stats.illegal += 1;
        } else {
            self.stats.evals += 1;
            match objective(&cand, &cperm) {
                None => self.stats.failed += 1,
                Some(c) => {
                    accepted = c <= self.cur_cost || {
                        let d = (c - self.cur_cost) as f64;
                        (self.rng.next_f32() as f64) < (-d / self.temp.max(1e-12)).exp()
                    };
                    if accepted {
                        self.insts = cand;
                        self.perm = cperm;
                        self.cur_cost = c;
                        self.stats.accepted += 1;
                        self.record(kind, pc as u32, r);
                        self.note_best();
                    }
                }
            }
        }
        policy.update(r, fam, accepted);
        self.policy = Some(policy);
        self.temp *= self.cooling;
        accepted
    }

    /// Full search: prime (if needed), greedy per-region tightening, then
    /// `budget` annealing steps.
    pub fn run<F>(&mut self, budget: u64, objective: &mut F)
    where
        F: FnMut(&[Instruction], &[u32]) -> Option<u64>,
    {
        if self.cur_cost == u64::MAX {
            self.prime(objective);
        }
        self.greedy_tighten(objective);
        self.start_anneal(budget);
        for _ in 0..budget {
            self.anneal_step(objective);
        }
        debug_assert!(lint(&self.best_insts).is_empty());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn program() -> Vec<Instruction> {
        assemble(
            r#"
    --:-:-:Y:1  S2R R0, SR_TID.X;
    --:-:-:Y:6  MOV R10, c[0x0][0x160];
    --:-:-:Y:6  MOV R11, c[0x0][0x164];
    --:-:-:Y:6  SHF.L.U32 R1, R0, 0x4, RZ;
    --:-:-:Y:6  IMAD.WIDE.U32 R2, R0, 0x10, R10;
    --:-:0:-:2  LDG.E.128 R4, [R2];
    01:-:-:Y:1  FFMA R8, R4, R5, R6;
    --:-:-:Y:1  FFMA R9, R4, R5, R7;
    --:-:-:Y:4  FADD R12, R8, R9;
    --:-:-:Y:4  STG.E [R2], R12;
    --:-:-:Y:5  EXIT;
"#,
        )
        .unwrap()
        .insts
    }

    #[test]
    fn detune_keeps_streams_clean_and_sized() {
        let mut insts = program();
        let n = insts.len();
        detune(&mut insts);
        assert_eq!(insts.len(), n);
        assert!(lint(&insts).is_empty());
        // Fixed-latency producers now stall for their full latency.
        assert!(insts
            .iter()
            .all(|i| fixed_latency(&i.op).is_none_or(|l| i.ctrl.stall as u64 >= l.min(15))));
        assert!(insts.iter().all(|i| i.ctrl.reuse == 0 && i.ctrl.yield_flag));
    }

    #[test]
    fn dependence_oracle_basics() {
        let insts = program();
        // FFMA R8 <- R4 after LDG R4..R7: RAW.
        assert!(must_precede(&insts[5], &insts[6]));
        // The two FFMAs share only sources: independent.
        assert!(!must_precede(&insts[6], &insts[7]));
        // FADD reads both FFMA results: RAW both ways.
        assert!(must_precede(&insts[6], &insts[8]));
        assert!(must_precede(&insts[7], &insts[8]));
        // EXIT is pinned.
        assert!(must_precede(&insts[9], &insts[10]));
    }

    #[test]
    fn predicates_are_dependencies() {
        let m = assemble(
            r#"
    --:-:-:Y:4  ISETP.GT.AND P0, PT, R5, 0, PT;
    --:-:-:Y:1  @P0 MOV R1, 0x1;
    --:-:-:Y:5  EXIT;
"#,
        )
        .unwrap();
        assert!(must_precede(&m.insts[0], &m.insts[1]));
    }

    #[test]
    fn scoreboard_pairs_are_dependencies() {
        let m = assemble(
            r#"
    --:-:0:-:2  LDG.E R4, [R2];
    --:-:1:-:2  LDG.E R8, [R6];
    01:-:-:Y:4  FADD R5, R10, R11;
    --:-:-:Y:5  EXIT;
"#,
        )
        .unwrap();
        // Producer of scoreboard 0 and its waiter keep order even though
        // the waiter touches none of the load's registers.
        assert!(must_precede(&m.insts[0], &m.insts[2]));
        // Independent loads signalling different scoreboards with disjoint
        // registers may commute.
        assert!(!must_precede(&m.insts[0], &m.insts[1]));
    }

    /// Mechanical end-to-end: detune a stream, tune it with an issue-time
    /// proxy objective, and watch the proxy recover.
    #[test]
    fn tuner_recovers_static_cost() {
        let hand = program();
        let mut naive = hand.clone();
        detune(&mut naive);
        let cost = |insts: &[Instruction], _perm: &[u32]| -> Option<u64> {
            Some(insts.iter().map(|i| i.ctrl.stall.max(1) as u64).sum())
        };
        let hand_cost = cost(&hand, &[]).unwrap();
        let mut tuner = Tuner::new(naive, Vec::new(), 42);
        tuner.prime(&mut { cost });
        let naive_cost = tuner.cur_cost;
        assert!(naive_cost > hand_cost);
        tuner.run(200, &mut { cost });
        assert!(lint(&tuner.best_insts).is_empty());
        assert!(
            tuner.best_cost <= hand_cost,
            "tuned {} vs hand {hand_cost}",
            tuner.best_cost
        );
        assert!(!tuner.trajectory.is_empty());
    }

    #[test]
    fn swaps_preserve_the_multiset_and_perm() {
        let mut base = program();
        detune(&mut base);
        let mut tuner = Tuner::new(base, Vec::new(), 7);
        let base = tuner.insts.clone();
        let mut obj = |_: &[Instruction], _: &[u32]| Some(1u64);
        tuner.prime(&mut obj);
        tuner.start_anneal(64);
        for _ in 0..64 {
            tuner.anneal_step(&mut obj);
        }
        assert_eq!(tuner.insts.len(), base.len());
        for (i, &p) in tuner.perm.iter().enumerate() {
            assert_eq!(tuner.insts[i].op, base[p as usize].op, "perm broken at {i}");
        }
        let mut sorted: Vec<u32> = tuner.perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..base.len() as u32).collect::<Vec<_>>());
    }
}

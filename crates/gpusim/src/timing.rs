//! Cycle-level SM timing model, and the simulator's one timing entry point.
//!
//! [`simulate`] times one kernel launch under a [`Model`]:
//!
//! * [`Model::OneWave`] times a single steady-state wave on one SM and
//!   extrapolates across waves arithmetically, bounded below by DRAM
//!   bandwidth (§3.2–3.4 of DESIGN.md). This is exact on grids that are a
//!   whole multiple of full waves (every block does identical work in the
//!   paper's kernels) and is kept as the cheap main-loop model and as a
//!   cross-check for the device model; grids with a partial last wave are
//!   mistimed here.
//! * [`Model::Device`] and [`Model::DeviceExact`] simulate the full device
//!   ([`crate::device_sim`]), which places every block of the launch on its
//!   SM and runs the same wave loop per SM.
//!
//! [`crate::key`] is the content address of a `simulate` call, and
//! [`crate::BatchTimer`] runs the same body over a decode-once table.
//!
//! One *wave* of resident thread blocks is simulated cycle-by-cycle on one
//! SM (`simulate_wave`), executing instructions at issue so that
//! register-bank conflicts, shared-memory bank conflicts and L2/DRAM
//! behaviour come from exact addresses. A block executes only its timing
//! slice ([`crate::slice`]): the instructions whose data can reach an
//! address, a guard or a branch. The rest only advance the PC, and a
//! memory access outside the slice computes, checks and traces its
//! addresses but moves no data; [`TimingOptions::strict_writeback`] runs
//! every instruction in full.
//!
//! The model implements the paper's scheduling machinery explicitly:
//!
//! * **stall counts** gate the earliest next issue of a warp;
//! * **wait barriers** (scoreboards) gate issue until variable-latency
//!   producers complete;
//! * the **yield flag** steers the scheduler's warp choice: when set it
//!   stays on the same warp, when clear it switches, paying one dead cycle
//!   and invalidating the operand reuse cache (§5.1.4);
//! * the FP32 pipe takes [`FP32_ISSUE_CYCLES`] = 2 cycles per warp
//!   instruction (16 lanes/scheduler) plus 1 for a register-bank conflict —
//!   three distinct source registers with the same index parity, unless
//!   `.reuse` covers one (§5.2.2);
//! * `LDS`/`STS` occupy the MIO pipe for a number of phases derived from
//!   exact bank-conflict analysis (32 banks × 4 B; wide accesses are served
//!   in 64-bit/128-bit phases);
//! * `LDG`/`STG` coalesce into 32 B sectors, look up a set-associative L2,
//!   and account DRAM traffic.

use sass::reg::Reg;
use sass::Module;

use crate::counters::{CounterCollector, HwCounters};
use crate::decode::{decode_module, InstDesc, MemKind, PipeKind};
use crate::device::DeviceSpec;
use crate::device_sim::{self, DeviceTrace};
use crate::exec::{advance_ctx, step, Effects, ExecEnv, MemTrace, StepEvent, Warp, WARP_SIZE};
use crate::launch::{run_block, Gpu, LaunchDims, LaunchError};
use crate::memory::{ConstBank, GlobalMemory};
use crate::simprof::{Collector, KernelProfile, SchedClass, StallCause};
use crate::timeq::TimeQueue;

/// Cycles an FP32-pipe warp instruction holds its scheduler's pipe (16
/// lanes per scheduler), before any register-bank conflict cycle; the issue
/// gate admits no FP32 instruction while the pipe is held. Analytic lower
/// bounds on a launch's time (`wino_core::Conv::time_lower_bound`) rest on
/// this figure.
pub const FP32_ISSUE_CYCLES: u64 = 2;

/// Options for a timing run.
#[derive(Clone, Copy, Debug, Default)]
pub struct TimingOptions {
    /// Override the number of resident blocks per SM (defaults to the
    /// occupancy calculation).
    pub blocks_per_sm: Option<u32>,
    /// Simulate only instruction indices in `[start, end)` as the region of
    /// interest for cycle/FLOP accounting (the paper reports "main loop"
    /// numbers separately from whole-kernel numbers). What executes does
    /// not change; only the accounting window does.
    pub region: Option<(u32, u32)>,
    /// Strict load writeback: memory loads deposit a poison bit pattern at
    /// issue and only deliver their real data when the scoreboard signals.
    /// Under a *correct* schedule (§5.1.4) results are unchanged; a missing
    /// stall or wait lets consumers see poison and corrupts the output —
    /// a dynamic validator for the kernels' control codes, catching
    /// loop-carried hazards the static linter's per-block analysis cannot.
    pub strict_writeback: bool,
    /// Collect a per-instruction stall-attribution profile of the simulated
    /// wave (see [`crate::simprof`]). Off by default: the profiling path is
    /// fully skipped and `KernelTiming` is unchanged except `profile: None`.
    pub profile: bool,
    /// Collect per-launch hardware counters (see [`crate::counters`]). Off
    /// by default, and zero-cost like `profile`: `KernelTiming` is unchanged
    /// except `counters: None`.
    pub counters: bool,
    /// Worker threads the device models shard SMs across. `0` uses the
    /// host's available parallelism; the one-wave model runs on the
    /// caller's thread. Results are bit-identical for every value.
    pub jobs: usize,
    /// Record a [`DeviceTrace`] (per-SM wave spans) alongside the timing.
    /// Observability only: it never changes a timing number. It needs a
    /// device model; under [`Model::OneWave`], [`simulate`] rejects it.
    pub trace: bool,
}

/// The timing model of a [`simulate`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Model {
    /// Full-device multi-wave simulation ([`crate::device_sim`]).
    Device,
    /// The device model with every SM and every wave simulated
    /// individually, so a trace gets one real lane per SM.
    DeviceExact,
    /// One steady-state wave on one SM, extrapolated: the Figures 7–9
    /// main-loop unit and the cross-check of the device model.
    OneWave,
}

/// Result of timing one kernel. The default is an empty grid's: no blocks,
/// no cycles, no time, and no collectors (there is no wave to attribute
/// slots to).
#[derive(Clone, Debug, Default)]
pub struct KernelTiming {
    /// Cycles for one wave of resident blocks on one SM.
    pub wave_cycles: u64,
    /// Number of waves needed across the whole device.
    pub waves: u64,
    /// Resident blocks per SM used for the wave.
    pub blocks_per_sm: u32,
    /// Total thread blocks in the grid.
    pub total_blocks: u64,
    /// SMs that receive at least one block (`min(total_blocks, num_sms)`):
    /// grids smaller than the device leave the remaining SMs idle and must
    /// not be charged a full-device wave.
    pub busy_sms: u32,
    /// Whole-kernel time in seconds (max of compute and DRAM bounds).
    pub time_s: f64,
    /// FP32 FLOPs executed by the whole grid (2 per FFMA lane, 1 per
    /// FADD/FMUL lane).
    pub flops: f64,
    /// Achieved TFLOP/s over the whole kernel.
    pub tflops: f64,
    /// FP32-pipe utilization during the accounting region when one was
    /// given, else over the whole kernel — our equivalent of Nsight
    /// Compute's SM "speed of light" (§7.2).
    pub sol_pct: f64,
    /// FP32-pipe utilization over the whole kernel, in percent.
    pub sol_total_pct: f64,
    /// Estimated DRAM traffic of the whole grid, bytes.
    pub dram_bytes: u64,
    /// Pure-DRAM lower bound on kernel time, seconds.
    pub dram_time_s: f64,
    /// Cycles in the accounting region.
    pub region_cycles: u64,
    /// Extra MIO cycles lost to shared-memory bank conflicts.
    pub smem_conflict_cycles: u64,
    /// Per-instruction stall-attribution profile of the simulated wave,
    /// present when [`TimingOptions::profile`] was set.
    pub profile: Option<KernelProfile>,
    /// Per-launch hardware counters of the simulated wave, present when
    /// [`TimingOptions::counters`] was set.
    pub counters: Option<HwCounters>,
}

impl KernelTiming {
    /// Main-loop (region) TFLOP/s on the simulated device: the region's
    /// FLOPs per SM over the region's cycles, scaled to the whole chip.
    pub fn region_tflops(&self, device: &DeviceSpec, region_flops_per_block: f64) -> f64 {
        if self.region_cycles == 0 {
            return 0.0;
        }
        let blocks = self.blocks_per_sm as f64;
        let region_time = self.region_cycles as f64 / device.clock_hz;
        region_flops_per_block * blocks * device.num_sms as f64 / region_time / 1e12
    }
}

// ---- L2 cache model ----------------------------------------------------------

/// Set-associative, sectored L2 with LRU replacement. Presence is tracked
/// at 32 B sector granularity, like the real cache: a miss fills only the
/// missing sector, so DRAM traffic is counted per sector.
///
/// The sets share one flat tag array, [`L2_WAYS`] entries per set, and the
/// first `len[set]` tags of a set are its sectors in most-recently-used
/// order: a hit moves its tag to the front, a miss inserts at the front,
/// and a full set drops its last tag, the least recently used one.
pub(crate) struct L2Cache {
    tags: Vec<u64>,
    len: Vec<u8>,
    num_sets: u64,
}

const L2_LINE: u64 = 32;
const L2_WAYS: usize = 16;

impl L2Cache {
    fn new(bytes: u64) -> Self {
        let num_sets = (bytes / L2_LINE / L2_WAYS as u64).max(1);
        L2Cache {
            tags: vec![0; num_sets as usize * L2_WAYS],
            len: vec![0; num_sets as usize],
            num_sets,
        }
    }

    /// The sector tag of `addr`, its set's tag slots and their fill count.
    fn set(&mut self, addr: u64) -> (u64, &mut [u64], &mut u8) {
        let line = addr / L2_LINE;
        let set = (line % self.num_sets) as usize;
        let ways = &mut self.tags[set * L2_WAYS..(set + 1) * L2_WAYS];
        (line, ways, &mut self.len[set])
    }

    /// Drop a sector if present (store-coherence for the L1 model).
    fn invalidate(&mut self, addr: u64) {
        let (line, ways, len) = self.set(addr);
        let n = *len as usize;
        if let Some(i) = ways[..n].iter().position(|&t| t == line) {
            ways.copy_within(i + 1..n, i);
            *len -= 1;
        }
    }

    /// Access one 32 B sector; returns true on hit.
    fn access(&mut self, addr: u64) -> bool {
        let (line, ways, len) = self.set(addr);
        let n = *len as usize;
        let hit = ways[..n].iter().position(|&t| t == line);
        // Shift the more recent tags back by one over the hit's slot, or
        // over the first free slot (the last tag, when the set is full).
        let end = match hit {
            Some(i) => i,
            None if n < L2_WAYS => {
                *len += 1;
                n
            }
            None => L2_WAYS - 1,
        };
        ways.copy_within(..end, 1);
        ways[0] = line;
        hit.is_some()
    }
}

// ---- shared-memory bank-conflict analysis ------------------------------------

/// Number of MIO phases needed to service one shared-memory warp access.
///
/// Shared memory has 32 banks of 4 B. A 32-bit access is serviced in one
/// phase over the full warp; 64-bit in two half-warp phases; 128-bit in four
/// quarter-warp phases (this is why the paper needs the Fig. 3 arrangement —
/// the hardware broadcast rule is per-phase, and patterns that look
/// broadcast-friendly across the full warp still conflict within a phase).
/// Within a phase, the cost is the maximum over banks of the number of
/// *distinct* 4 B words requested in that bank (same word broadcasts).
pub fn smem_phases(addrs: &[u32], width_bytes: u32) -> u32 {
    if addrs.is_empty() {
        return 0;
    }
    let words_per_lane = (width_bytes / 4).max(1);
    let lanes_per_phase = (32 / words_per_lane).max(1) as usize;
    addrs
        .chunks(lanes_per_phase)
        .map(|chunk| phase_cost(chunk, words_per_lane))
        .sum()
}

/// Cost of one phase. A phase in which no bank sees a second distinct word
/// costs exactly one cycle, so only a conflicting phase pays for the exact
/// count.
fn phase_cost(chunk: &[u32], words_per_lane: u32) -> u32 {
    // A lane's words sit in consecutive banks. When the phase's words fill
    // as many banks as there are words, every bank serves at most one.
    let lane_banks = u32::MAX >> (32 - words_per_lane);
    let (banks, starts) = chunk.iter().fold((0u32, 0u32), |(m, s), &a| {
        (m | lane_banks.rotate_left(a / 4 % 32), s | (a / 4))
    });
    if banks.count_ones() == chunk.len() as u32 * words_per_lane {
        return 1;
    }
    // Some bank serves two words. One pass records the first block of
    // words each bank group sees; a repeat of that block is a broadcast and
    // costs nothing. Blocks are single words, or, when every lane starts on
    // a multiple of a power-of-two `words_per_lane`, whole lanes: aligned
    // lanes either read the same block or disjoint bank groups.
    let shift = if words_per_lane.is_power_of_two() && starts & (words_per_lane - 1) == 0 {
        words_per_lane.trailing_zeros()
    } else {
        0
    };
    let group_mask = (32 >> shift) - 1;
    let mut seen = 0u32;
    let mut first = [0u32; 32];
    for &a in chunk {
        let mut word = a / 4;
        let end = word + words_per_lane;
        while word < end {
            let block = word >> shift;
            let group = block & group_mask;
            if seen & (1 << group) == 0 {
                seen |= 1 << group;
                first[group as usize] = block;
            } else if first[group as usize] != block {
                return conflict_degree(chunk, words_per_lane);
            }
            word += 1 << shift;
        }
    }
    1
}

/// Exact cost of a conflicting phase: the most distinct words any one bank
/// serves. All words of the phase go out together, at most 32 of them
/// (`lanes_per_phase × words_per_lane`), so they sort in a fixed buffer.
fn conflict_degree(chunk: &[u32], words_per_lane: u32) -> u32 {
    let mut words = [0u32; 32];
    let mut n = 0usize;
    for &a in chunk {
        for w in 0..words_per_lane {
            words[n] = a / 4 + w;
            n += 1;
        }
    }
    words[..n].sort_unstable();
    let mut per_bank = [0u32; 32];
    let mut prev = None;
    for &word in &words[..n] {
        if prev != Some(word) {
            per_bank[(word % 32) as usize] += 1;
            prev = Some(word);
        }
    }
    per_bank.iter().copied().max().unwrap().max(1)
}

/// One warp's last shared-memory access at one PC, and its phase count.
///
/// Moving every address of a list by the same multiple of 128 bytes, the
/// bank period, changes no lane's bank and no same-word relation, so the
/// moved list costs the phases the memoised one did. (`exec` faults a wide
/// access that is not aligned to its width, so no lane's words straddle
/// the wrap of the 32-bit address space.) A fresh memo holds the empty
/// list, which takes no phases.
#[derive(Clone, Copy, Default)]
struct PhaseMemo {
    addrs: [u32; 32],
    len: u8,
    phases: u32,
}

impl PhaseMemo {
    /// `smem_phases(addrs, width)`, for the one access width of the memo's
    /// PC: the memoised count when `addrs` is the memoised list moved as a
    /// whole by a multiple of 128 bytes, else a fresh count, memoised.
    fn phases(&mut self, addrs: &[u32], width: u32) -> u32 {
        let n = addrs.len();
        if n == self.len as usize {
            let old = &self.addrs[..n];
            let shift = addrs.first().map_or(0, |&a| a.wrapping_sub(old[0]));
            if shift.is_multiple_of(128)
                && addrs
                    .iter()
                    .zip(old)
                    .all(|(&a, &o)| a.wrapping_sub(o) == shift)
            {
                return self.phases;
            }
        }
        self.phases = smem_phases(addrs, width);
        self.addrs[..n].copy_from_slice(addrs);
        self.len = n as u8;
        self.phases
    }
}

/// The [`PhaseMemo`]s of one SM, one per (shared-memory PC, warp slot).
struct PhaseMemos {
    /// Each PC's row of memos; `u32::MAX` for a PC that is no shared-memory
    /// access.
    row: Vec<u32>,
    warps: usize,
    memos: Vec<PhaseMemo>,
}

impl PhaseMemos {
    fn new(table: &[InstDesc], warps: usize) -> Self {
        let mut rows = 0u32;
        let row = table
            .iter()
            .map(|d| {
                if d.mem != MemKind::Shared {
                    return u32::MAX;
                }
                rows += 1;
                rows - 1
            })
            .collect();
        PhaseMemos {
            row,
            warps,
            memos: vec![PhaseMemo::default(); rows as usize * warps],
        }
    }

    fn get(&mut self, pc: u32, warp: usize) -> &mut PhaseMemo {
        &mut self.memos[self.row[pc as usize] as usize * self.warps + warp]
    }
}

/// The distinct 32 B sectors (address / 32, ascending) touched by a global
/// warp access, written into a caller-owned buffer so that every caller
/// reuses one allocation across all the accesses it analyses.
pub fn global_sectors_into(addrs: &[u64], width_bytes: u32, sectors: &mut Vec<u64>) {
    sectors.clear();
    for &a in addrs {
        let first = a / 32;
        let last = (a + width_bytes as u64 - 1) / 32;
        sectors.extend(first..=last);
    }
    sectors.sort_unstable();
    sectors.dedup();
}

// ---- per-warp scheduling state -----------------------------------------------

/// Architectural and issue-time state of one warp, touched only when the
/// warp issues.
struct WarpSlot {
    warp: Warp,
    block: usize,
    /// Reuse cache: operand slot -> latched register, per §5.1.4.
    reuse_cache: [Option<Reg>; 4],
}

/// The state of one warp the issue logic reads, kept in a dense per-warp
/// array apart from the bulky [`WarpSlot`] (whose register and predicate
/// files would otherwise share its cache lines).
#[derive(Clone, Copy)]
struct WarpSched {
    /// Current PC, refreshed only after this warp steps; `None` once no
    /// context remains.
    pc: Option<u32>,
    /// Wait mask of `table[pc]`, cached with `pc`.
    wait_mask: u8,
    /// Bit `b` set iff `sb_pending[b] > 0`.
    pending_mask: u8,
    /// Yield flag of the last issued instruction.
    last_yield: bool,
    sb_pending: [u32; 6],
}

/// Warps a wave can hold: one bit each in the [`Gates`] masks. The
/// hardware limit is 64 (2,048 threads) on both devices.
const MAX_WAVE_WARPS: usize = 64;

/// The issue gate of one SM's warps as bitmasks, bit `w` for warp `w`: one
/// mask per check, kept current as each warp's state changes. A
/// scheduler's eligible warps, its round-robin winner and the blocker of
/// an idle slot then come from a few bit operations over its own warps
/// ([`Gates::classify`]), however many it holds.
struct Gates {
    warps: Vec<WarpSched>,
    exited: u64,
    barrier: u64,
    /// Stall count not yet elapsed at cycle `now`.
    stalled: u64,
    /// `release[c % 16]`: the stalled warps whose stall count elapses at
    /// cycle `c`. Stall counts are 4-bit, so every pending release falls in
    /// `now + 1..=now + 15`.
    release: [u64; 16],
    now: u64,
    /// The PC is outside the program: nothing to schedule.
    no_next: u64,
    /// The next instruction waits on a pending scoreboard.
    scoreboard: u64,
    /// The next instruction issues to the FP32, INT or MIO pipe.
    pipe: [u64; 3],
}

impl Gates {
    fn new(table: &[InstDesc], pcs: impl Iterator<Item = Option<u32>>) -> Self {
        let mut g = Gates {
            warps: Vec::new(),
            exited: 0,
            barrier: 0,
            stalled: 0,
            release: [0; 16],
            now: 0,
            no_next: 0,
            scoreboard: 0,
            pipe: [0; 3],
        };
        for (w, pc) in pcs.enumerate() {
            g.warps.push(WarpSched {
                pc: None,
                wait_mask: 0,
                pending_mask: 0,
                last_yield: true,
                sb_pending: [0; 6],
            });
            g.set_pc(w, table, pc);
        }
        g
    }

    /// Point warp `w` at `pc` and refresh its next-instruction masks.
    fn set_pc(&mut self, w: usize, table: &[InstDesc], pc: Option<u32>) {
        let bit = 1u64 << w;
        let next = pc.and_then(|pc| table.get(pc as usize));
        let ws = &mut self.warps[w];
        ws.pc = pc;
        ws.wait_mask = next.map_or(0, |d| d.wait_mask);
        set_bit(&mut self.no_next, bit, next.is_none());
        let pipe = next.map(|d| d.pipe);
        for (mask, kind) in self
            .pipe
            .iter_mut()
            .zip([PipeKind::Fp32, PipeKind::Int, PipeKind::Mio])
        {
            set_bit(mask, bit, pipe == Some(kind));
        }
        self.refresh_scoreboard(w);
    }

    fn refresh_scoreboard(&mut self, w: usize) {
        let ws = &self.warps[w];
        set_bit(
            &mut self.scoreboard,
            1 << w,
            ws.wait_mask & ws.pending_mask != 0,
        );
    }

    /// Count a pending scoreboard signal of warp `w`.
    fn sb_add(&mut self, w: usize, b: u8) {
        let ws = &mut self.warps[w];
        ws.sb_pending[b as usize] += 1;
        ws.pending_mask |= 1 << b;
        self.refresh_scoreboard(w);
    }

    fn sb_release(&mut self, w: usize, b: u8) {
        let ws = &mut self.warps[w];
        let p = &mut ws.sb_pending[b as usize];
        *p = p.saturating_sub(1);
        if *p == 0 {
            ws.pending_mask &= !(1 << b);
        }
        self.refresh_scoreboard(w);
    }

    /// Warp `w`, issuing at cycle `now`, may not issue again for `stall`
    /// cycles.
    fn stall(&mut self, w: usize, stall: u64) {
        debug_assert!((1..16).contains(&stall));
        self.stalled |= 1 << w;
        self.release[((self.now + stall) % 16) as usize] |= 1 << w;
    }

    /// Move to `cycle`, releasing every stall that has elapsed.
    fn advance(&mut self, cycle: u64) {
        if cycle - self.now >= 16 {
            self.stalled = 0;
            self.release = [0; 16];
        } else {
            for c in self.now + 1..=cycle {
                let slot = &mut self.release[(c % 16) as usize];
                self.stalled &= !*slot;
                *slot = 0;
            }
        }
        self.now = cycle;
    }

    /// The first cycle after `now` at which a stalled warp that is neither
    /// exited nor at a barrier may issue again.
    fn next_release(&self) -> Option<u64> {
        let waiting = self.stalled & !self.exited & !self.barrier;
        if waiting == 0 {
            return None;
        }
        (self.now + 1..self.now + 16).find(|&c| self.release[(c % 16) as usize] & waiting != 0)
    }

    /// Gate the warps in `mine` (one scheduler's) with its pipes as `busy`:
    /// the warps that can issue, and per [`StallCause`] the warps whose
    /// first failing check it is. The checks run in blocker-priority order:
    /// exited (out of the running), barrier, stall count, no instruction
    /// (out of the running), scoreboard, then the instruction's pipe.
    #[inline]
    fn classify(&self, mine: u64, busy: PipesBusy) -> (u64, [u64; 5]) {
        let live = mine & !self.exited;
        let barrier = live & self.barrier;
        let rest = live & !self.barrier;
        let stalled = rest & self.stalled;
        let rest = rest & !self.stalled & !self.no_next;
        let scoreboard = rest & self.scoreboard;
        let rest = rest & !self.scoreboard;
        let held = |busy: bool, pipe: u64| if busy { pipe } else { 0 };
        let pipe_busy = rest & (held(busy.fp, self.pipe[0]) | held(busy.int, self.pipe[1]));
        let mio = rest & held(busy.mio, self.pipe[2]);
        let mut blocked = [0; 5];
        blocked[StallCause::Barrier as usize] = barrier;
        blocked[StallCause::Scoreboard as usize] = scoreboard;
        blocked[StallCause::MioQueue as usize] = mio;
        blocked[StallCause::StallCount as usize] = stalled;
        blocked[StallCause::PipeBusy as usize] = pipe_busy;
        (rest & !pipe_busy & !mio, blocked)
    }
}

/// Set or clear `bit` in `mask`, without a branch.
#[inline]
fn set_bit(mask: &mut u64, bit: u64, on: bool) {
    *mask = *mask & !bit | bit & u64::from(on).wrapping_neg();
}

/// Which of a scheduler's issue pipes cannot accept an instruction this
/// cycle.
#[derive(Clone, Copy)]
struct PipesBusy {
    fp: bool,
    int: bool,
    mio: bool,
}

/// Deferred load data (strict mode): (first reg, lane mask, per-reg lane
/// values). Only the masked lanes are written back — exactly the lanes the
/// (possibly predicated) load produced, like hardware. Scoreboard events are
/// keyed by `(warp, barrier)` in the wave's [`TimeQueue`], preserving the
/// old `(cycle, warp, barrier)` delivery order exactly; the data is boxed
/// so that a queue entry stays 32 bytes.
type Writeback = Option<Box<(u8, u32, Vec<[u32; 32]>)>>;

// ---- per-SM wave simulation (shared with `device_sim`) -----------------------

/// SM-persistent memory-system state carried across waves: the device model
/// simulates one SM's blocks wave after wave, and a later wave sees the L2,
/// the L1 and the memory-backend backlog its predecessors left behind. The
/// one-wave path uses a fresh carry (plus its explicit L2 warm-up block).
pub(crate) struct SmCarry {
    pub(crate) l2: L2Cache,
    pub(crate) l1: L2Cache,
    /// Residual memory-backend backlog at wave end, in cycles of service
    /// still queued (the next wave starts with its `mem_q` at this bound).
    pub(crate) mem_q: f64,
    /// Host-side memo of shared-memory phase counts; no model state, so
    /// any wave may read what an earlier one memoised.
    phase_memos: PhaseMemos,
}

impl SmCarry {
    pub(crate) fn new(launch: &Launch<'_>) -> Self {
        let Launch {
            device,
            module,
            table,
            dims,
            resident,
            ..
        } = *launch;
        // L1: whatever the combined L1/shared capacity leaves after the
        // resident blocks' shared-memory allocations. Sectored,
        // write-through/no-allocate. The L2 is modelled at full device
        // capacity per SM — the paper's kernels share their hot (filter)
        // data across SMs, so symmetric sharing is the closest cheap model.
        let smem_used = resident as u64 * module.info.smem_bytes as u64;
        let l1_bytes = (device.l1_smem_combined as u64)
            .saturating_sub(smem_used)
            .max(4 * 1024);
        let warps = resident as usize * dims.threads_per_block().div_ceil(WARP_SIZE) as usize;
        SmCarry {
            l2: L2Cache::new(device.l2_bytes),
            l1: L2Cache::new(l1_bytes),
            mem_q: 0.0,
            phase_memos: PhaseMemos::new(table, warps),
        }
    }
}

/// One launch as both timing models see it: everything but which blocks a
/// wave runs and the bandwidth share they get.
pub(crate) struct Launch<'a> {
    pub(crate) device: &'a DeviceSpec,
    pub(crate) module: &'a Module,
    /// `table[pc]` describes `module.insts[pc]` under `opts.region`.
    pub(crate) table: &'a [InstDesc],
    pub(crate) dims: LaunchDims,
    pub(crate) cbank: &'a ConstBank,
    pub(crate) opts: TimingOptions,
    /// Resident blocks per SM ([`effective_residency`]).
    pub(crate) resident: u32,
}

/// Inputs of one wave simulation on one SM.
pub(crate) struct WaveParams<'a> {
    pub(crate) launch: &'a Launch<'a>,
    /// Grid coordinates of the blocks resident in this wave (one entry per
    /// simulated block; decides both addressing and functional effects).
    pub(crate) coords: &'a [[u32; 3]],
    /// SMs competing for the L2/DRAM backend during this wave. Each SM gets
    /// a `1/share_sms` bandwidth share; the one-wave path always charges the
    /// full device, the device model charges only the SMs still busy.
    pub(crate) share_sms: f64,
}

/// The summable tallies of simulated waves: one wave's, one SM's or the
/// device's. One scaled add folds a wave into its SM (`k` counts the
/// fast-forwarded repeats it stands for) and an SM into the device (`k`
/// counts the SMs of its class).
///
/// A wave's `cycles` is the loop's final cycle count (at least 1: every
/// wave issues), and its collectors are finished at it, so waves sum and
/// compare exactly.
#[derive(Default)]
pub(crate) struct Tally {
    /// Busy cycles (the sum of wave cycles).
    pub(crate) cycles: u64,
    pub(crate) waves: u64,
    pub(crate) fp_active: u64,
    pub(crate) flops: u64,
    pub(crate) dram_bytes: u64,
    pub(crate) smem_conflict_cycles: u64,
    /// Cycles spanned by the accounting region (0 if none).
    pub(crate) region_cycles: u64,
    pub(crate) region_fp_active: u64,
    pub(crate) profile: Option<KernelProfile>,
    pub(crate) counters: Option<HwCounters>,
}

impl Tally {
    /// Fold `k` copies of `t` in.
    pub(crate) fn add_scaled(&mut self, t: Tally, k: u64) {
        self.cycles += k * t.cycles;
        self.waves += k * t.waves;
        self.fp_active += k * t.fp_active;
        self.flops += k * t.flops;
        self.dram_bytes += k * t.dram_bytes;
        self.smem_conflict_cycles += k * t.smem_conflict_cycles;
        self.region_cycles += k * t.region_cycles;
        self.region_fp_active += k * t.region_fp_active;
        add_scaled_into(&mut self.profile, t.profile, k, KernelProfile::add_scaled);
        add_scaled_into(&mut self.counters, t.counters, k, HwCounters::add_scaled);
    }

    /// The [`KernelTiming`] of `launch`, whose simulated waves sum to
    /// `self` and which its model extends to the whole grid as `whole`:
    /// the one derivation of time, throughput and speed of light that both
    /// models share.
    pub(crate) fn finish(self, launch: &Launch<'_>, whole: WholeLaunch) -> KernelTiming {
        let device = launch.device;
        let schedulers = device.schedulers_per_sm as f64;
        let dram_time = whole.dram_bytes as f64 / device.dram_bw;
        let time_s = whole.compute_s.max(dram_time);
        let sol_total = self.fp_active as f64 / (schedulers * self.cycles.max(1) as f64);
        let sol_base = if launch.opts.region.is_some() && self.region_cycles > 0 {
            self.region_fp_active as f64 / (schedulers * self.region_cycles as f64)
        } else {
            sol_total
        };
        let total_blocks = launch.dims.num_blocks();
        KernelTiming {
            wave_cycles: whole.wave_cycles,
            waves: whole.waves,
            blocks_per_sm: launch.resident,
            total_blocks,
            busy_sms: total_blocks.min(device.num_sms as u64) as u32,
            time_s,
            flops: whole.flops,
            tflops: whole.flops / time_s / 1e12,
            sol_pct: 100.0 * sol_base,
            sol_total_pct: 100.0 * sol_total,
            dram_bytes: whole.dram_bytes,
            dram_time_s: dram_time,
            region_cycles: whole.region_cycles,
            smem_conflict_cycles: self.smem_conflict_cycles,
            profile: self.profile,
            counters: self.counters,
        }
    }
}

/// What a timing model alone knows of a launch: how its simulated waves
/// extend to the whole grid ([`Tally::finish`]).
pub(crate) struct WholeLaunch {
    /// The reported wave cycles (at least 1).
    pub(crate) wave_cycles: u64,
    pub(crate) waves: u64,
    /// Seconds the SMs compute, before the DRAM bound.
    pub(crate) compute_s: f64,
    pub(crate) flops: f64,
    pub(crate) dram_bytes: u64,
    /// The reported accounting-region cycles.
    pub(crate) region_cycles: u64,
}

/// `sum += k · x` for a collector that may be absent; the first `x` starts
/// the sum as itself plus `k - 1` more copies.
fn add_scaled_into<T: Clone>(sum: &mut Option<T>, x: Option<T>, k: u64, add: fn(&mut T, &T, u64)) {
    let Some(x) = x else { return };
    match sum {
        Some(sum) => add(sum, &x, k),
        None => {
            let once = (k > 1).then(|| x.clone());
            let sum = sum.insert(x);
            if let Some(once) = once {
                add(sum, &once, k - 1);
            }
        }
    }
}

/// Grid coordinates of linear block index `i` (x fastest, like hardware).
pub(crate) fn grid_coord(dims: LaunchDims, i: u64) -> [u32; 3] {
    [
        (i % dims.grid[0] as u64) as u32,
        ((i / dims.grid[0] as u64) % dims.grid[1] as u64) as u32,
        (i / (dims.grid[0] as u64 * dims.grid[1] as u64)) as u32,
    ]
}

/// Occupancy-checked effective residency for a launch: the occupancy bound
/// (or its override), capped at the blocks the grid can actually deliver to
/// one SM — a grid smaller than one SM's residency must not be timed as if
/// every SM ran a full complement.
fn effective_residency(
    device: &DeviceSpec,
    module: &Module,
    dims: LaunchDims,
    opts: &TimingOptions,
) -> Result<u32, LaunchError> {
    let tpb = dims.threads_per_block();
    let occupancy = device.blocks_per_sm(tpb, module.info.num_regs as u32, module.info.smem_bytes);
    if occupancy == 0 {
        return Err(LaunchError::BadBlockShape(format!(
            "kernel cannot be resident: {} regs, {} B smem, {} threads",
            module.info.num_regs, module.info.smem_bytes, tpb
        )));
    }
    let per_sm_blocks = dims.num_blocks().div_ceil(device.num_sms as u64);
    let resident = opts
        .blocks_per_sm
        .unwrap_or(occupancy)
        .min(per_sm_blocks.min(u32::MAX as u64) as u32)
        .max(1);
    let warps = resident as u64 * tpb.div_ceil(WARP_SIZE) as u64;
    if warps > MAX_WAVE_WARPS as u64 {
        return Err(LaunchError::BadBlockShape(format!(
            "{resident} resident blocks of {tpb} threads are {warps} warps; an SM holds at most {MAX_WAVE_WARPS}"
        )));
    }
    Ok(resident)
}

/// Time one kernel launch on `gpu` under `model`; the trace is present when
/// [`TimingOptions::trace`] is set. This is not a functional launch: the
/// one-wave model runs one wave and the device model fast-forwards
/// repeated waves, and the blocks a model simulates execute against
/// `gpu`'s memory only their address-and-control slice
/// ([`crate::slice`]), so their loads and stores move no data the slice
/// does not need. Only [`TimingOptions::strict_writeback`] moves all of
/// it. Use [`Gpu::launch`] for functional output.
pub fn simulate(
    gpu: &mut Gpu,
    module: &Module,
    dims: LaunchDims,
    params: &[u8],
    model: Model,
    opts: TimingOptions,
) -> Result<(KernelTiming, Option<DeviceTrace>), LaunchError> {
    // Decoded-instruction descriptor table: one flat entry per PC, so the
    // per-cycle path never pattern-matches `Op` (see `crate::decode`).
    let table = decode_module(&module.insts, opts.region);
    simulate_decoded(gpu, module, dims, params, model, opts, &table)
}

/// The body of [`simulate`] over a caller-supplied descriptor table, shared
/// with [`crate::BatchTimer`]: `table[pc]` must describe `module.insts[pc]`
/// under `opts.region`.
pub(crate) fn simulate_decoded(
    gpu: &mut Gpu,
    module: &Module,
    dims: LaunchDims,
    params: &[u8],
    model: Model,
    opts: TimingOptions,
    table: &[InstDesc],
) -> Result<(KernelTiming, Option<DeviceTrace>), LaunchError> {
    debug_assert_eq!(table.len(), module.insts.len());
    if opts.trace && model == Model::OneWave {
        return Err(LaunchError::Unsupported(
            "a wave trace needs a device model",
        ));
    }
    let resident = effective_residency(&gpu.device, module, dims, &opts)?;
    if dims.num_blocks() == 0 {
        return Ok((
            KernelTiming::default(),
            opts.trace.then(DeviceTrace::default),
        ));
    }
    let launch = Launch {
        device: &gpu.device,
        module,
        table,
        dims,
        cbank: &ConstBank::new(dims.block, dims.grid, params),
        opts,
        resident,
    };
    match model {
        Model::OneWave => Ok((one_wave(&gpu.mem, &launch)?, None)),
        Model::Device => device_sim::full_device(&gpu.mem, &launch, false),
        Model::DeviceExact => device_sim::full_device(&gpu.mem, &launch, true),
    }
}

/// The one-wave model: simulate one steady-state wave (whose blocks really
/// run), then scale to the whole grid.
fn one_wave(mem: &GlobalMemory, launch: &Launch<'_>) -> Result<KernelTiming, LaunchError> {
    let Launch {
        device,
        module,
        dims,
        cbank,
        opts,
        resident,
        ..
    } = *launch;
    let total_blocks = dims.num_blocks();
    // Map resident block index -> actual grid coordinates. Block 0 of the
    // grid serves as an L2 warm-up block (see below), so the timed wave
    // uses blocks 1..=resident when the grid is large enough — a
    // steady-state wave whose neighbours have already pulled the shared
    // (filter) data into L2.
    let warm = total_blocks > resident as u64;
    let coords: Vec<[u32; 3]> = (0..resident as u64)
        .map(|b| grid_coord(dims, b + warm as u64))
        .collect();

    let mut carry = SmCarry::new(launch);
    if warm {
        // Execute block 0, inserting every global-memory sector it touches
        // into the L2 model.
        let l2 = &mut carry.l2;
        let mut sectors = Vec::new();
        let mut warm_l2 = |t: &MemTrace| {
            global_sectors_into(&t.global_addrs, t.width.max(1), &mut sectors);
            for &sec in &sectors {
                l2.access(sec * 32);
            }
        };
        // It runs the timed wave's slice: its addresses are those of full
        // execution.
        let slice = (!opts.strict_writeback).then_some(launch.table);
        run_block(
            module,
            mem,
            cbank,
            [0, 0, 0],
            dims.block,
            Some(&mut warm_l2),
            slice,
        )
        .map_err(LaunchError::Exec)?;
    }
    let wave = simulate_wave(
        mem,
        &WaveParams {
            launch,
            coords: &coords,
            share_sms: device.num_sms as f64,
        },
        &mut carry,
    )?;

    let wave_cycles = wave.cycles.max(1);
    let waves = total_blocks
        .div_ceil(resident as u64 * device.num_sms as u64)
        .max(1);
    // Blocks in the wave we actually simulated:
    let simulated_blocks = resident as u64;
    let whole = WholeLaunch {
        wave_cycles,
        waves,
        compute_s: waves as f64 * wave_cycles as f64 / device.clock_hz,
        flops: wave.flops as f64 * total_blocks as f64 / simulated_blocks as f64,
        dram_bytes: (wave.dram_bytes as f64 * total_blocks as f64 / simulated_blocks as f64) as u64,
        region_cycles: wave.region_cycles,
    };
    Ok(wave.finish(launch, whole))
}

/// Simulate one wave of `p.coords.len()` blocks cycle-by-cycle on one SM,
/// executing each issued instruction's timing slice against `mem`. Shared by
/// the one-wave analytic path above and the full-device model
/// ([`crate::device_sim`]), which calls it per SM per wave with the
/// memory-system state carried between waves in `carry`.
pub(crate) fn simulate_wave(
    mem: &GlobalMemory,
    p: &WaveParams<'_>,
    carry: &mut SmCarry,
) -> Result<Tally, LaunchError> {
    let Launch {
        device,
        module,
        table,
        dims,
        cbank,
        opts,
        ..
    } = *p.launch;
    let coords = p.coords;
    let tpb = dims.threads_per_block();
    let resident = coords.len() as u32;
    let warps_per_block = tpb.div_ceil(WARP_SIZE) as usize;
    let num_warps = warps_per_block * resident as usize;

    // Architectural state: `resident` blocks, each with its own smem.
    let mut smems: Vec<Vec<u8>> = (0..resident)
        .map(|_| vec![0u8; module.info.smem_bytes as usize])
        .collect();
    let mut slots: Vec<WarpSlot> = (0..num_warps)
        .map(|i| {
            let block = i / warps_per_block;
            let w = (i % warps_per_block) as u32;
            let base = w * WARP_SIZE;
            let lanes = (tpb - base).min(WARP_SIZE);
            WarpSlot {
                warp: Warp::new(module.info.num_regs.max(1), base, lanes),
                block,
                reuse_cache: [None; 4],
            }
        })
        .collect();
    let mut gates = Gates::new(
        table,
        slots
            .iter()
            .map(|slot| slot.warp.current_ctx().map(|c| c.pc)),
    );

    // Warp `w` belongs to scheduler `w % schedulers`, round-robin like
    // hardware; `mine[s]` holds scheduler `s`'s warps.
    let schedulers = device.schedulers_per_sm as usize;
    let mine: Vec<u64> = (0..schedulers)
        .map(|s| {
            (s..num_warps)
                .step_by(schedulers)
                .fold(0, |m, w| m | 1 << w)
        })
        .collect();

    let mut events: TimeQueue<(u8, u8), Writeback> = TimeQueue::new();
    let l2 = &mut carry.l2;
    let l1 = &mut carry.l1;
    let phase_memos = &mut carry.phase_memos;

    // Per-scheduler state.
    let mut fp_busy = vec![0u64; schedulers];
    let mut int_busy = vec![0u64; schedulers];
    let mut sched_free = vec![0u64; schedulers];
    let mut last_warp: Vec<Option<usize>> = vec![None; schedulers];
    // Per-SM MIO pipe.
    let mut mio_busy = 0u64;
    // Memory-backend service queue: each SM gets a fair share of L2/DRAM
    // bandwidth; sector service times accumulate here so bursty load
    // streams see queueing delay, not just fixed latency. This is what
    // makes the §3.3 arithmetic-intensity argument live: a kernel whose
    // sector demand outruns its share becomes memory-throughput-bound.
    let mut mem_q: f64 = carry.mem_q;
    let l2_cycles_per_sector = 32.0 * p.share_sms * device.clock_hz / device.l2_bw;
    let dram_cycles_per_sector = 32.0 * p.share_sms * device.clock_hz / device.dram_bw;

    // Counters.
    let mut cycle: u64 = 0;
    let mut fp_active: u64 = 0;
    let mut flops_wave: u64 = 0;
    let mut dram_bytes_wave: u64 = 0;
    let mut smem_conflict_cycles: u64 = 0;
    // Stall-attribution profile: every scheduler-cycle of the wave is
    // charged to exactly one SASS line (or the empty bucket), so the
    // per-line sums reconcile with `schedulers * wave_cycles`.
    let mut prof: Option<Collector> = opts.profile.then(|| Collector::new(module, schedulers));
    // Hardware counters: same zero-cost gating as the profiler.
    let mut ctr: Option<CounterCollector> = opts.counters.then(|| {
        CounterCollector::new(
            schedulers,
            num_warps as u32,
            device.max_threads_per_sm / WARP_SIZE,
        )
    });
    // Region accounting.
    let mut region_first: Option<u64> = None;
    let mut region_last: u64 = 0;
    let mut region_fp_active: u64 = 0;

    // Live-warp counter (decremented on exit) replaces the old per-cycle
    // `slots.iter().any(..)` scan. Scratch buffers below are reused across
    // iterations so the scheduler pass performs no heap allocation.
    let mut live_warps = num_warps;
    let mut sector_scratch: Vec<u64> = Vec::new();
    let mut trace = MemTrace::default();
    let mut guard_iter: u64 = 0;
    let max_cycles: u64 = 5_000_000_000;

    while live_warps > 0 {
        guard_iter += 1;
        if cycle > max_cycles || guard_iter > max_cycles {
            return Err(LaunchError::BadBlockShape(
                "timing simulation did not converge".into(),
            ));
        }
        gates.advance(cycle);
        // Deliver due scoreboard completions.
        while events.peek_time().is_some_and(|t| t <= cycle) {
            let (_, (warp, barrier), wb) = events.pop().unwrap();
            let warp = warp as usize;
            if let Some((reg0, mask, values)) = wb.as_deref() {
                for (j, vals) in values.iter().enumerate() {
                    let reg = &mut slots[warp].warp.regs[*reg0 as usize + j];
                    for lane in 0..32 {
                        if mask & (1 << lane) != 0 {
                            reg[lane] = vals[lane];
                        }
                    }
                }
            }
            gates.sb_release(warp, barrier);
        }

        let mut issued_any = false;
        let mut recovering_any = false;
        for s in 0..schedulers {
            if sched_free[s] > cycle {
                // Recovering from a warp switch or cleared yield flag; the
                // profile charges the slot to the line that caused it.
                if let Some(p) = prof.as_mut() {
                    if let Some(pc) = p.last_pc[s] {
                        p.class[s] = SchedClass::YieldRecover(pc);
                    }
                }
                recovering_any = true;
                continue;
            }
            // Yield policy: the last warp stays on the scheduler while it is
            // eligible if its last instruction had the yield flag set;
            // otherwise the round-robin winner (the first eligible warp
            // after it, wrapping around) issues.
            let prev = last_warp[s];
            let busy = PipesBusy {
                fp: fp_busy[s] > cycle,
                int: int_busy[s] > cycle,
                mio: mio_busy > cycle + 3,
            };
            let (eligible, blocked) = gates.classify(mine[s], busy);
            if let Some(cc) = ctr.as_mut() {
                cc.eligible[s] = eligible.count_ones() as usize;
            }
            let stay = prev.filter(|&p| gates.warps[p].last_yield && eligible >> p & 1 != 0);
            let winner = || {
                let after = match prev {
                    Some(p) if p + 1 < num_warps => eligible & u64::MAX << (p + 1),
                    _ => eligible,
                };
                let pick = if after != 0 { after } else { eligible };
                (pick != 0).then(|| pick.trailing_zeros() as usize)
            };
            let Some(chosen) = stay.or_else(winner) else {
                if let Some(p) = prof.as_mut() {
                    // Charge the slot to the line the lowest warp of the
                    // highest-priority cause would issue next; no blocked
                    // warp at all leaves the slot `Empty`.
                    let cause = StallCause::ALL
                        .into_iter()
                        .find(|&c| blocked[c as usize] != 0);
                    if let Some(cause) = cause {
                        let w = blocked[cause as usize].trailing_zeros() as usize;
                        if let Some(pc) = gates.warps[w].pc {
                            p.class[s] = SchedClass::Blocked(cause, pc);
                        }
                    }
                }
                continue;
            };
            issued_any = true;
            let switched = prev != Some(chosen);
            if switched && prev.is_some() {
                sched_free[s] = cycle + 2;
            } else {
                sched_free[s] = cycle + 1;
            }
            last_warp[s] = Some(chosen);

            // Issue: execute.
            let block = slots[chosen].block;
            let ctaid = coords[block];
            let pc = gates.warps[chosen].pc.expect("an eligible warp has a PC");
            let desc = &table[pc as usize];
            if opts.strict_writeback {
                // Direct poison detection: reading a register whose load has
                // not completed is a schedule hazard — report it precisely.
                for &(_, r) in desc.srcs() {
                    let regs = &slots[chosen].warp.regs[r.0 as usize];
                    for (lane, &rv) in regs.iter().enumerate() {
                        if rv == 0x7fba_dbad {
                            return Err(LaunchError::Exec(crate::exec::ExecError {
                                ctaid,
                                warp: (chosen % warps_per_block) as u32,
                                pc,
                                inst: sass::disasm::inst_text(&module.insts[pc as usize]),
                                msg: format!(
                                    "schedule hazard: {} lane {} read before its load completed (poison)",
                                    r, lane
                                ),
                            }));
                        }
                    }
                }
            }
            let event = if !opts.strict_writeback && desc.pc_only() {
                // All `step` would do. The trace keeps the last memory
                // access's addresses, which only a memory access reads.
                advance_ctx(&mut slots[chosen].warp, pc);
                StepEvent::Executed
            } else {
                let mut env = ExecEnv {
                    global: mem,
                    smem: &mut smems[block],
                    cbank,
                    ctaid,
                    block_dim: dims.block,
                };
                // Strict writeback validates data, so it runs everything.
                let effects = if opts.strict_writeback {
                    Effects::All
                } else {
                    desc.effects
                };
                step(
                    &mut slots[chosen].warp,
                    &module.insts,
                    &mut env,
                    (chosen % warps_per_block) as u32,
                    &mut trace,
                    effects,
                )
                .map_err(LaunchError::Exec)?
            };
            if let Some(p) = prof.as_mut() {
                p.issued(s, pc);
            }
            if let Some(cc) = ctr.as_mut() {
                cc.c.issued += 1;
                let pipe = match desc.pipe {
                    PipeKind::Fp32 => 0,
                    PipeKind::Int => 1,
                    PipeKind::Mio => 2,
                    PipeKind::Ctrl | PipeKind::None => 3,
                };
                cc.c.issued_by_pipe[pipe] += 1;
            }

            // Strict writeback: capture the freshly-loaded destination
            // registers, poison them, and defer the real values to the
            // scoreboard-completion event.
            let mut wb: Writeback = None;
            if opts.strict_writeback && !trace.is_store && trace.exec_mask != 0 {
                if let Some((reg0, nregs)) = desc.strict_ld {
                    let n = nregs as usize;
                    let mut vals = Vec::with_capacity(n);
                    let slot = &mut slots[chosen];
                    for j in 0..n {
                        let r = reg0 as usize + j;
                        vals.push(slot.warp.regs[r]);
                        for lane in 0..32 {
                            if trace.exec_mask & (1 << lane) != 0 {
                                slot.warp.regs[r][lane] = 0x7fba_dbad; // poison NaN
                            }
                        }
                    }
                    wb = Some(Box::new((reg0, trace.exec_mask, vals)));
                }
            }

            let in_region = desc.in_region;
            if in_region {
                if region_first.is_none() {
                    region_first = Some(cycle);
                }
                region_last = cycle;
            }

            // Account cost per pipe.
            match desc.pipe {
                PipeKind::Fp32 => {
                    let mut occ = FP32_ISSUE_CYCLES;
                    let conflict = desc.bank_conflict(&slots[chosen].reuse_cache);
                    if conflict {
                        occ += 1;
                        if let Some(p) = prof.as_mut() {
                            p.bank_conflict(pc, 1);
                        }
                    }
                    if let Some(cc) = ctr.as_mut() {
                        cc.c.fp_issues += 1;
                        cc.c.fp_pipe_busy_cycles += occ;
                        if conflict {
                            cc.c.reg_bank_conflicts += 1;
                        }
                        // Operand-fetch reuse accounting: RZ never reads a
                        // bank (pre-filtered at decode), a latched register
                        // is served by the cache.
                        for &(sl, r) in desc.srcs() {
                            if slots[chosen].reuse_cache[sl as usize] == Some(r) {
                                cc.c.reuse_hits[sl as usize] += 1;
                            } else {
                                cc.c.reuse_misses[sl as usize] += 1;
                            }
                        }
                    }
                    fp_busy[s] = cycle + occ;
                    fp_active += FP32_ISSUE_CYCLES; // useful cycles only
                    if in_region {
                        region_fp_active += FP32_ISSUE_CYCLES;
                    }
                    flops_wave += desc.flops_x32;
                }
                PipeKind::Int => {
                    int_busy[s] = cycle + 2;
                }
                PipeKind::Mio => {
                    let start = mio_busy.max(cycle);
                    match desc.mem {
                        MemKind::Shared => {
                            let phases = phase_memos
                                .get(pc, chosen)
                                .phases(&trace.shared_addrs, trace.width)
                                as u64;
                            let ideal = (trace.width as u64 * trace.shared_addrs.len() as u64)
                                .div_ceil(128);
                            let extra = phases.saturating_sub(ideal.max(1));
                            smem_conflict_cycles += extra;
                            if extra > 0 {
                                if let Some(p) = prof.as_mut() {
                                    p.bank_conflict(pc, extra);
                                }
                            }
                            if let Some(cc) = ctr.as_mut() {
                                cc.c.smem_accesses += 1;
                                let wi = match trace.width {
                                    0..=4 => 0,
                                    8 => 1,
                                    _ => 2,
                                };
                                cc.c.smem_accesses_by_width[wi] += 1;
                                cc.c.smem_phases += phases;
                                cc.c.smem_extra_phases += extra;
                                // `phases - extra` keeps the per-access split
                                // exact even when predication leaves fewer
                                // phases than the conflict-free floor.
                                cc.c.smem_ideal_phases += phases - extra;
                                cc.c.smem_mio_cycles += phases.max(1);
                            }
                            mio_busy = start + phases.max(1);
                            let done = mio_busy + device.smem_latency as u64;
                            if let Some(b) = desc.write_bar {
                                gates.sb_add(chosen, b);
                                events.push(done, (chosen as u8, b), wb.take());
                            }
                            if let Some(b) = desc.read_bar {
                                gates.sb_add(chosen, b);
                                events.push(mio_busy + 2, (chosen as u8, b), None);
                            }
                        }
                        MemKind::Global => {
                            global_sectors_into(
                                &trace.global_addrs,
                                trace.width,
                                &mut sector_scratch,
                            );
                            let occ = (sector_scratch.len() as u64).div_ceil(4).max(1);
                            mio_busy = start + occ;
                            if let Some(cc) = ctr.as_mut() {
                                cc.c.global_accesses += 1;
                                cc.c.global_sectors += sector_scratch.len() as u64;
                                cc.c.global_mio_cycles += occ;
                            }
                            let mut worst = device.l1_latency as u64;
                            let mut service = 0.0f64;
                            for &sec in &sector_scratch {
                                if trace.is_store {
                                    // Write-through, no-allocate; keep L1
                                    // coherent by dropping the stale sector.
                                    l1.invalidate(sec * 32);
                                    let hit = l2.access(sec * 32);
                                    if !hit {
                                        dram_bytes_wave += 32;
                                        service += dram_cycles_per_sector;
                                    } else {
                                        service += l2_cycles_per_sector;
                                    }
                                    if let Some(cc) = ctr.as_mut() {
                                        if hit {
                                            cc.c.l2_sector_hits += 1;
                                        } else {
                                            cc.c.l2_sector_misses += 1;
                                            cc.c.dram_write_bytes += 32;
                                        }
                                    }
                                    continue;
                                }
                                if l1.access(sec * 32) {
                                    if let Some(cc) = ctr.as_mut() {
                                        cc.c.l1_sector_hits += 1;
                                    }
                                    continue; // L1 hit: no backend traffic
                                }
                                let hit = l2.access(sec * 32);
                                if !hit {
                                    dram_bytes_wave += 32;
                                    worst = worst.max(device.l2_miss_latency as u64);
                                    service += dram_cycles_per_sector;
                                } else {
                                    worst = worst.max(device.l2_hit_latency as u64);
                                    service += l2_cycles_per_sector;
                                }
                                if let Some(cc) = ctr.as_mut() {
                                    if hit {
                                        cc.c.l2_sector_hits += 1;
                                    } else {
                                        cc.c.l2_sector_misses += 1;
                                        cc.c.dram_read_bytes += 32;
                                    }
                                }
                            }
                            mem_q = mem_q.max(cycle as f64) + service;
                            // Completion cannot precede backend service.
                            let backend_done = mem_q as u64;
                            if trace.is_store {
                                // Stores: sources are read at MIO entry.
                                if let Some(b) = desc.read_bar {
                                    gates.sb_add(chosen, b);
                                    events.push(mio_busy + 2, (chosen as u8, b), None);
                                }
                            } else {
                                let done = (mio_busy + worst).max(backend_done);
                                if let Some(b) = desc.write_bar {
                                    gates.sb_add(chosen, b);
                                    events.push(done, (chosen as u8, b), wb.take());
                                }
                                if let Some(b) = desc.read_bar {
                                    gates.sb_add(chosen, b);
                                    events.push(mio_busy + 2, (chosen as u8, b), None);
                                }
                            }
                        }
                        MemKind::NotMem => unreachable!(),
                    }
                }
                PipeKind::Ctrl | PipeKind::None => {
                    int_busy[s] = cycle + 1;
                }
            }

            // Control-code bookkeeping. A cleared yield flag costs the
            // scheduler one extra issue cycle beyond the switch preference
            // (§5.1.4: "this will take one more clock cycle") — an
            // unhidable slot loss, which is why the paper's "Natural"
            // strategy wins (§6.1).
            if !desc.yield_flag {
                sched_free[s] = sched_free[s].max(cycle + 3);
            }
            let slot = &mut slots[chosen];
            // Update reuse cache: latch flagged operand registers (resolved
            // at decode to the first source occurrence per slot). A cleared
            // yield flag disables the instruction's own reuse latch (§5.1.4:
            // switching "disables the register reuse cache").
            for sl in 0..4 {
                if desc.reuse & (1 << sl) != 0 && desc.yield_flag {
                    slot.reuse_cache[sl] = desc.reuse_latch[sl];
                } else if desc.pipe == PipeKind::Fp32 {
                    slot.reuse_cache[sl] = None;
                }
            }
            gates.stall(chosen, desc.stall_cycles.into());
            gates.warps[chosen].last_yield = desc.yield_flag;
            gates.set_pc(chosen, table, slot.warp.current_ctx().map(|c| c.pc));

            match event {
                StepEvent::Barrier => gates.barrier |= 1 << chosen,
                StepEvent::Exited => {
                    gates.exited |= 1 << chosen;
                    live_warps -= 1;
                }
                StepEvent::Executed => {}
            }
            if event != StepEvent::Executed {
                // An arrival or an exit releases the block's barrier once
                // every live warp of the block waits at it. Warps of a block
                // occupy a contiguous slot range by construction.
                let (lo, hi) = (
                    block * warps_per_block,
                    ((block + 1) * warps_per_block).min(num_warps),
                );
                let block_warps = (u64::MAX >> (64 - (hi - lo))) << lo;
                let live_block = block_warps & !gates.exited;
                if live_block != 0 && live_block & !gates.barrier == 0 {
                    gates.barrier &= !block_warps;
                }
            }
        }

        // Advance time. Three regimes:
        //   issue     — some scheduler issued; state changed, step 1 cycle.
        //   recovery  — nothing issued but a scheduler is inside a yield /
        //               switch window; skip straight to the first cycle at
        //               which anything can change.
        //   quiescent — nothing issued and no recovery window; jump to the
        //               next wake-up (ready warp, event, pipe drain) or
        //               report a deadlock.
        if issued_any {
            if let Some(p) = prof.as_mut() {
                p.commit(1);
            }
            if let Some(cc) = ctr.as_mut() {
                cc.commit(1);
            }
            cycle += 1;
        } else if recovering_any {
            // No scheduler can issue until one of: a sched_free window ends,
            // a pipe drains enough to accept, the MIO queue shortens below
            // the admission bound, a warp's stall count elapses, or a
            // scoreboard event lands. Each predicate flips exactly at the
            // bound included here, so every intermediate cycle would replay
            // this evaluation verbatim — skip them in one hop.
            let mut next = u64::MAX;
            for s in 0..schedulers {
                if sched_free[s] > cycle {
                    next = next.min(sched_free[s]);
                }
                if fp_busy[s] > cycle {
                    next = next.min(fp_busy[s]);
                }
                if int_busy[s] > cycle {
                    next = next.min(int_busy[s]);
                }
            }
            if mio_busy > cycle + 3 {
                next = next.min(mio_busy - 3);
            }
            if let Some(t) = gates.next_release() {
                next = next.min(t);
            }
            if let Some(t) = events.peek_time() {
                next = next.min(t);
            }
            // `recovering_any` guarantees at least one sched_free bound, so
            // `next` is finite and strictly ahead of `cycle`.
            let span = next - cycle;
            if let Some(p) = prof.as_mut() {
                p.commit(span);
            }
            if let Some(cc) = ctr.as_mut() {
                cc.commit(span);
            }
            cycle = next;
        } else {
            let mut next = u64::MAX;
            for s in 0..schedulers {
                if fp_busy[s] > cycle {
                    next = next.min(fp_busy[s]);
                }
                if int_busy[s] > cycle {
                    next = next.min(int_busy[s]);
                }
            }
            if mio_busy > cycle {
                next = next.min(mio_busy);
            }
            if let Some(t) = gates.next_release() {
                next = next.min(t);
            }
            if let Some(t) = events.peek_time() {
                next = next.min(t);
            }
            if next == u64::MAX {
                if live_warps > 0 {
                    return Err(LaunchError::BadBlockShape(
                        "timing deadlock: live warps but nothing schedulable".into(),
                    ));
                }
                break;
            }
            let new_cycle = next.max(cycle + 1);
            // The blocked/empty classification holds for the whole jumped
            // window: nothing changes before `next` by construction.
            if let Some(p) = prof.as_mut() {
                p.commit(new_cycle - cycle);
            }
            if let Some(cc) = ctr.as_mut() {
                // During a jumped window no scheduler had an eligible warp,
                // so the scratch (reset to zero) classification holds.
                cc.commit(new_cycle - cycle);
            }
            cycle = new_cycle;
        }
    }

    // Residual backend backlog carried to the SM's next wave (one-wave
    // callers discard it).
    carry.mem_q = (mem_q - cycle as f64).max(0.0);
    Ok(Tally {
        cycles: cycle,
        waves: 1,
        fp_active,
        flops: flops_wave,
        dram_bytes: dram_bytes_wave,
        smem_conflict_cycles,
        region_cycles: region_first.map_or(0, |f| region_last.saturating_sub(f).max(1)),
        region_fp_active,
        profile: prof.map(|p| p.finish(cycle)),
        counters: ctr.map(|c| c.finish(cycle)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;
    use crate::memory::ParamBuilder;
    use sass::assemble;

    #[test]
    fn smem_phase_math() {
        // 32 lanes, consecutive 4B: one phase, no conflict.
        let addrs: Vec<u32> = (0..32).map(|l| l * 4).collect();
        assert_eq!(smem_phases(&addrs, 4), 1);
        // All lanes hit the same bank, different words: 32-way conflict.
        let addrs: Vec<u32> = (0..32).map(|l| l * 128).collect();
        assert_eq!(smem_phases(&addrs, 4), 32);
        // Broadcast: all lanes same word: 1 phase.
        let addrs: Vec<u32> = vec![64; 32];
        assert_eq!(smem_phases(&addrs, 4), 1);
        // 128-bit, lanes consecutive 16B: 4 phases of 8 lanes, each phase
        // covers all 32 banks once.
        let addrs: Vec<u32> = (0..32).map(|l| l * 16).collect();
        assert_eq!(smem_phases(&addrs, 16), 4);
        // 128-bit, all lanes load the same 16B: still 4 phases (broadcast).
        let addrs: Vec<u32> = vec![0; 32];
        assert_eq!(smem_phases(&addrs, 16), 4);
        // 128-bit with a 2-way conflict inside each phase: within each
        // 8-lane phase, half the lanes sit 512 B away (same banks, different
        // words).
        let addrs: Vec<u32> = (0..32).map(|l| (l % 4) * 16 + (l % 8 / 4) * 512).collect();
        assert_eq!(smem_phases(&addrs, 16), 8);
        // ...whereas a uniform 512 B split across *phases* is conflict-free.
        let addrs: Vec<u32> = (0..32).map(|l| (l % 8) * 16 + (l / 8 % 2) * 512).collect();
        assert_eq!(smem_phases(&addrs, 16), 4);
        // 128-bit at a 4 B-misaligned base: each lane's four words rotate
        // the bank assignment but still cover each bank exactly once per
        // phase — crossing the bank "pair" boundary alone is free.
        let addrs: Vec<u32> = (0..32).map(|l| l * 16 + 8).collect();
        assert_eq!(smem_phases(&addrs, 16), 4);
        // 128-bit at stride 20 (misaligned *and* drifting): within every
        // 8-lane phase the 33rd-word wraparound doubles up four banks.
        let addrs: Vec<u32> = (0..32).map(|l| l * 20).collect();
        assert_eq!(smem_phases(&addrs, 16), 8);
        // 64-bit broadcast: both half-warp phases read the same word pair.
        let addrs: Vec<u32> = vec![0; 32];
        assert_eq!(smem_phases(&addrs, 8), 2);
        // Predicated-off access (no active lanes) takes no phases.
        assert_eq!(smem_phases(&[], 4), 0);
    }

    /// Moving a whole address list by a multiple of 128 bytes, wrapping,
    /// leaves its phase count alone: 20,000 generated lists of widths
    /// 4/8/16, full or partial, from pools of one word (broadcast) to a
    /// million, at strides that spread, conflict or both. Each lane is
    /// aligned to its width, as `exec` requires, and the bases and moves
    /// range over the whole 32-bit space, so moves wrap.
    #[test]
    fn smem_phases_ignore_whole_list_moves_by_the_bank_period() {
        let mut rng = tensor::XorShiftRng::new(0xBA4C_0128);
        let (mut conflicting, mut wrapped) = (0, 0);
        for case in 0..20_000 {
            let width = [4u32, 8, 16][rng.gen_index(3)];
            let lanes = if rng.gen_index(2) == 0 {
                32
            } else {
                rng.gen_index(33)
            };
            let pool = [1usize, 4, 64, 1 << 20][rng.gen_index(4)];
            let stride = [width, 128, 128 + width, 4 * width][rng.gen_index(4)];
            let base = rng.next_u32() & !(width - 1);
            let addrs: Vec<u32> = (0..lanes)
                .map(|_| base.wrapping_add(rng.gen_index(pool) as u32 * stride))
                .collect();
            let by = rng.next_u32().wrapping_mul(128);
            let moved: Vec<u32> = addrs.iter().map(|a| a.wrapping_add(by)).collect();
            let phases = smem_phases(&addrs, width);
            assert_eq!(
                phases,
                smem_phases(&moved, width),
                "case {case}: width {width} by {by:#x} addrs {addrs:x?}"
            );
            let ideal = (lanes as u32 * width).div_ceil(128);
            conflicting += usize::from(phases > ideal);
            wrapped += usize::from(addrs.iter().zip(&moved).any(|(a, m)| m < a));
        }
        assert!(
            conflicting > 1_000 && wrapped > 1_000,
            "{conflicting} {wrapped}"
        );
    }

    /// The memo serves a list moved as a whole by a multiple of 128 bytes,
    /// and recounts when one lane moves differently from the rest, or when
    /// the list's length changes.
    #[test]
    fn phase_memo_recounts_unless_the_whole_list_moved() {
        let mut memo = PhaseMemo::default();
        assert_eq!(memo.phases(&[], 4), 0);
        // 32-bit unit stride: one phase.
        let unit: Vec<u32> = (0..32).map(|l| 4096 + l * 4).collect();
        assert_eq!(memo.phases(&unit, 4), 1);
        let moved: Vec<u32> = unit.iter().map(|a| a + 256).collect();
        assert_eq!(memo.phases(&moved, 4), 1);
        // Lane 0 moves like the rest, lane 1 by 124 bytes more: it lands on
        // lane 0's bank, a different word, so the phase doubles.
        let mut skewed = moved.clone();
        skewed[1] = moved[0] + 128;
        assert_eq!(memo.phases(&skewed, 4), 2);
        // A whole-list move of the skewed list keeps its count.
        let back: Vec<u32> = skewed.iter().map(|a| a - 128).collect();
        assert_eq!(memo.phases(&back, 4), 2);
        // Dropping the last lane keeps lane 1's conflict; dropping lane 1
        // too (a shorter list that is a move of nothing memoised) removes
        // it.
        assert_eq!(memo.phases(&back[..31], 4), 2);
        let no_lane1: Vec<u32> = [&back[..1], &back[2..31]].concat();
        assert_eq!(memo.phases(&no_lane1, 4), 1);
    }

    /// The stamp-LRU cache that the flat sets replaced, kept as their
    /// oracle: each set a list of `(sector tag, last-use stamp)` that
    /// evicts its least stamp.
    struct StampCache {
        sets: Vec<Vec<(u64, u64)>>,
        num_sets: u64,
        stamp: u64,
    }

    impl StampCache {
        fn new(bytes: u64) -> Self {
            let num_sets = (bytes / L2_LINE / L2_WAYS as u64).max(1);
            StampCache {
                sets: vec![Vec::new(); num_sets as usize],
                num_sets,
                stamp: 0,
            }
        }

        fn invalidate(&mut self, addr: u64) {
            let line = addr / L2_LINE;
            let set = (line % self.num_sets) as usize;
            self.sets[set].retain(|e| e.0 != line);
        }

        fn access(&mut self, addr: u64) -> bool {
            let line = addr / L2_LINE;
            let set = (line % self.num_sets) as usize;
            self.stamp += 1;
            let stamp = self.stamp;
            let entries = &mut self.sets[set];
            if let Some(e) = entries.iter_mut().find(|e| e.0 == line) {
                e.1 = stamp;
                return true;
            }
            if entries.len() >= L2_WAYS {
                let lru = entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.1)
                    .map(|(i, _)| i)
                    .unwrap();
                entries.swap_remove(lru);
            }
            entries.push((line, stamp));
            false
        }

        /// The tags of set `set`, most recently used first.
        fn set_tags(&self, set: usize) -> Vec<u64> {
            let mut entries = self.sets[set].clone();
            entries.sort_unstable_by_key(|e| std::cmp::Reverse(e.1));
            entries.into_iter().map(|e| e.0).collect()
        }
    }

    /// The flat sets agree with the stamp cache on every hit or miss and on
    /// every set's final contents: 8 geometries (1–8 sets of 16 ways) × 40
    /// generated streams × 1,000 accesses and invalidations = 320,000
    /// operations, over a tag pool of 1.25–2 sets' worth of ways per set,
    /// so that hits, evictions and invalidations of present and absent
    /// sectors all occur.
    #[test]
    fn flat_lru_sets_match_the_stamp_cache() {
        let mut rng = tensor::XorShiftRng::new(0x12C0_FFEE);
        let (mut hits, mut evictions, mut present, mut absent) = (0, 0, 0, 0);
        for sets in 1..=8u64 {
            for stream in 0..40 {
                let bytes = sets * L2_LINE * L2_WAYS as u64;
                let (mut flat, mut oracle) = (L2Cache::new(bytes), StampCache::new(bytes));
                let pool = sets as usize * [20, 24, 32][stream % 3];
                for op in 0..1_000 {
                    // Any byte of a sector names it.
                    let addr = rng.gen_index(pool) as u64 * L2_LINE + rng.gen_index(32) as u64;
                    let set = ((addr / L2_LINE) % sets) as usize;
                    let held = oracle.sets[set].iter().any(|e| e.0 == addr / L2_LINE);
                    if rng.gen_index(5) == 0 {
                        flat.invalidate(addr);
                        oracle.invalidate(addr);
                        if held {
                            present += 1;
                        } else {
                            absent += 1;
                        }
                    } else {
                        let full = oracle.sets[set].len() == L2_WAYS;
                        let hit = oracle.access(addr);
                        assert_eq!(
                            flat.access(addr),
                            hit,
                            "sets {sets} stream {stream} op {op}"
                        );
                        hits += usize::from(hit);
                        evictions += usize::from(!hit && full);
                    }
                }
                for set in 0..sets as usize {
                    let n = flat.len[set] as usize;
                    let tags = &flat.tags[set * L2_WAYS..][..n];
                    assert_eq!(
                        tags,
                        oracle.set_tags(set),
                        "sets {sets} stream {stream} set {set}"
                    );
                }
            }
        }
        for (what, n) in [
            ("hits", hits),
            ("evictions", evictions),
            ("invalidations of held sectors", present),
            ("invalidations of absent sectors", absent),
        ] {
            assert!(n > 5_000, "only {n} {what}");
        }
    }

    fn global_sectors(addrs: &[u64], width: u32) -> Vec<u64> {
        let mut sectors = Vec::new();
        global_sectors_into(addrs, width, &mut sectors);
        sectors
    }

    #[test]
    fn sector_coalescing() {
        // Fully coalesced 32×4B: 4 sectors.
        let addrs: Vec<u64> = (0..32).map(|l| 0x1000 + l * 4).collect();
        assert_eq!(global_sectors(&addrs, 4).len(), 4);
        // Strided by 128: 32 sectors.
        let addrs: Vec<u64> = (0..32).map(|l| 0x1000 + l * 128).collect();
        assert_eq!(global_sectors(&addrs, 4).len(), 32);
        // 128-bit coalesced: 16 sectors.
        let addrs: Vec<u64> = (0..32).map(|l| 0x1000 + l * 16).collect();
        assert_eq!(global_sectors(&addrs, 16).len(), 16);
        // Unaligned 128-bit: a 16 B read at sector offset 24 splits across
        // two sectors; at stride 32 the splits chain into 33 distinct
        // sectors — one more than the access count.
        let addrs: Vec<u64> = (0..32).map(|l| 0x1000 + l * 32 + 24).collect();
        assert_eq!(global_sectors(&addrs, 16).len(), 33);
        // Misaligned but within one sector: offset 8 still fits 8..24.
        let addrs: Vec<u64> = (0..32).map(|l| 0x1000 + l * 32 + 8).collect();
        assert_eq!(global_sectors(&addrs, 16).len(), 32);
        // Broadcast: every lane reads the same word — one sector.
        let addrs: Vec<u64> = vec![0x1000; 32];
        assert_eq!(global_sectors(&addrs, 4).len(), 1);
    }

    /// A pure-FFMA kernel should run the FP32 pipe near 100% and achieve
    /// close to peak TFLOPS.
    #[test]
    fn ffma_kernel_approaches_peak() {
        // 8 warps/SM, each issuing a long stream of independent FFMAs.
        let mut body = String::from(".kernel peak\n");
        body.push_str("MOV R2, 0x3f800000;\nMOV R3, 0x3f800000;\n");
        body.push_str("MOV R63, 0x200;\nLOOP:\n");
        for i in 0..64 {
            let d = 4 + (i % 32);
            body.push_str(&format!("--:-:-:Y:1  FFMA R{d}, R2, R3, R{d};\n"));
        }
        body.push_str("IADD3 R63, R63, -1, RZ;\n");
        body.push_str("ISETP.GT.AND P0, PT, R63, 0, PT;\n");
        body.push_str("--:-:-:Y:5  @P0 BRA `(LOOP);\nEXIT;\n");
        let m = assemble(&body).unwrap();
        let mut gpu = Gpu::new(DeviceSpec::rtx2070(), 1 << 20);
        // Grid sized to one full wave at the computed occupancy (4 blocks
        // of 256 threads per SM × 36 SMs).
        let t = simulate(
            &mut gpu,
            &m,
            LaunchDims::linear(144, 256),
            &[],
            Model::OneWave,
            TimingOptions::default(),
        )
        .unwrap()
        .0;
        let peak = DeviceSpec::rtx2070().peak_fp32_flops() / 1e12;
        assert!(
            t.tflops > 0.85 * peak && t.tflops <= peak * 1.01,
            "tflops {} vs peak {peak}",
            t.tflops
        );
        assert!(t.sol_pct > 85.0, "SOL {}", t.sol_pct);
    }

    /// Register-bank conflicts must slow the FP pipe measurably, and the
    /// reuse flag must recover the loss.
    #[test]
    fn bank_conflicts_and_reuse() {
        let build = |conflict: bool, reuse: bool| {
            let mut body = String::from(".kernel bk\nMOV R63, 0x100;\nLOOP:\n");
            for i in 0..32 {
                let d = 4 + i;
                // Sources R2, R4, R6 all even = conflict; R2, R5 mixed = none.
                let (a, b, c) = if conflict { (2, 4, 6) } else { (2, 5, 6) };
                let r = if reuse { ".reuse" } else { "" };
                body.push_str(&format!("--:-:-:Y:1  FFMA R{d}, R{a}, R{b}{r}, R{c};\n"));
            }
            body.push_str("IADD3 R63, R63, -1, RZ;\nISETP.GT.AND P0, PT, R63, 0, PT;\n@P0 BRA `(LOOP);\nEXIT;\n");
            assemble(&body).unwrap()
        };
        let run = |m: &sass::Module| {
            let mut gpu = Gpu::new(DeviceSpec::rtx2070(), 1 << 20);
            let opts = TimingOptions {
                counters: true,
                ..TimingOptions::default()
            };
            simulate(
                &mut gpu,
                m,
                LaunchDims::linear(36, 256),
                &[],
                Model::OneWave,
                opts,
            )
            .unwrap()
            .0
        };
        let clean = run(&build(false, false));
        let conflicted = run(&build(true, false));
        let reused = run(&build(true, true));
        assert!(
            conflicted.wave_cycles as f64 > 1.3 * clean.wave_cycles as f64,
            "conflict {} vs clean {}",
            conflicted.wave_cycles,
            clean.wave_cycles
        );
        // Reuse covers the repeated operand, removing the conflict.
        assert!(
            (reused.wave_cycles as f64) < 1.1 * clean.wave_cycles as f64,
            "reused {} vs clean {}",
            reused.wave_cycles,
            clean.wave_cycles
        );
        let conflicts = |t: &KernelTiming| t.counters.as_ref().unwrap().reg_bank_conflicts;
        assert!(conflicts(&conflicted) > 0);
        // Only cold-start FFMAs (empty reuse cache) may conflict when reuse
        // is on; steady state must be clean.
        assert!(
            conflicts(&reused) * 100 < conflicts(&conflicted),
            "reused {} conflicted {}",
            conflicts(&reused),
            conflicts(&conflicted)
        );
    }

    /// A streaming-load kernel must be DRAM-bandwidth-bound.
    #[test]
    fn streaming_load_hits_bandwidth_wall() {
        let m = assemble(
            r#"
.kernel stream
.params 16
    --:-:-:Y:1  S2R R0, SR_TID.X;
    --:-:-:Y:1  S2R R1, SR_CTAID.X;
    --:-:-:Y:6  MOV R10, c[0x0][0x160];
    --:-:-:Y:6  MOV R11, c[0x0][0x164];
    --:-:-:Y:6  IMAD R2, R1, 0x100, R0;
    --:-:-:Y:6  IMAD.WIDE.U32 R2, R2, 0x10, R10;
    --:-:0:-:2  LDG.E.128 R4, [R2];
    01:-:-:Y:4  FADD R8, R4, R5;
    --:-:-:Y:6  IMAD.WIDE.U32 R4, R1, 0x4, R10;
    --:-:-:Y:2  STG.E [R4], R8;
    --:-:-:Y:5  EXIT;
"#,
        )
        .unwrap();
        let mut gpu = Gpu::new(DeviceSpec::v100(), 1 << 28);
        let blocks = 4096u32;
        let buf = gpu.alloc(blocks as u64 * 256 * 16);
        let params = ParamBuilder::new().push_ptr(buf).build();
        let t = simulate(
            &mut gpu,
            &m,
            LaunchDims::linear(blocks, 256),
            &params,
            Model::OneWave,
            TimingOptions::default(),
        )
        .unwrap()
        .0;
        // Each block loads 256 × 16 B = 4 KiB of unique data.
        assert!(
            t.dram_bytes as f64 > 0.8 * blocks as f64 * 4096.0,
            "dram {}",
            t.dram_bytes
        );
        // The DRAM bound should be a visible fraction of the total time.
        assert!(
            t.dram_time_s > 0.2 * t.time_s,
            "dram {} total {}",
            t.dram_time_s,
            t.time_s
        );
    }

    /// More resident warps hide memory latency better: occupancy 2 beats
    /// occupancy 1 for a latency-bound kernel (the §7.1 mechanism).
    #[test]
    fn occupancy_hides_latency() {
        let m = assemble(
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
        let run = |resident: u32| {
            let mut gpu = Gpu::new(DeviceSpec::v100(), 1 << 24);
            let buf = gpu.alloc(1 << 20);
            let params = ParamBuilder::new().push_ptr(buf).build();
            simulate(
                &mut gpu,
                &m,
                LaunchDims::linear(160, 64),
                &params,
                Model::OneWave,
                TimingOptions {
                    blocks_per_sm: Some(resident),
                    ..Default::default()
                },
            )
            .unwrap()
            .0
        };
        let occ1 = run(1);
        let occ2 = run(2);
        // Two resident blocks per SM halve the wave count and overlap
        // latency; total time must improve.
        assert!(
            occ2.time_s < 0.8 * occ1.time_s,
            "occ2 {} vs occ1 {}",
            occ2.time_s,
            occ1.time_s
        );
    }

    /// The issue gate's warp masks hold 64 warps, the hardware limit; a
    /// residency override past it is rejected, not mistimed.
    #[test]
    fn residency_override_is_capped_at_64_warps() {
        let m = assemble(".kernel nop\nEXIT;\n").unwrap();
        let mut gpu = Gpu::new(DeviceSpec::rtx2070(), 1 << 16);
        let mut run = |blocks_per_sm| {
            let opts = TimingOptions {
                blocks_per_sm: Some(blocks_per_sm),
                ..Default::default()
            };
            let dims = LaunchDims::linear(36 * 3, 1024);
            simulate(&mut gpu, &m, dims, &[], Model::OneWave, opts)
        };
        assert!(run(2).is_ok());
        let err = run(3).unwrap_err();
        assert!(
            matches!(&err, LaunchError::BadBlockShape(msg) if msg.contains("96 warps")),
            "{err}"
        );
    }

    /// A strict-writeback timing run executes every instruction, so the
    /// blocks it simulates leave their results in memory; a default run,
    /// which executes only the timing slice, times the kernel identically.
    #[test]
    fn timing_run_is_functionally_correct() {
        let m = assemble(
            r#"
.kernel sq
.params 16
    --:-:-:Y:1  S2R R0, SR_TID.X;
    --:-:-:Y:1  S2R R1, SR_CTAID.X;
    --:-:-:Y:6  MOV R10, c[0x0][0x160];
    --:-:-:Y:6  MOV R11, c[0x0][0x164];
    --:-:-:Y:6  IMAD R2, R1, 0x20, R0;
    --:-:-:Y:6  IMAD.WIDE.U32 R2, R2, 0x4, R10;
    --:-:0:-:2  LDG.E R4, [R2];
    01:-:-:Y:4  FMUL R4, R4, R4;
    --:-:-:Y:2  STG.E [R2], R4;
    --:-:-:Y:5  EXIT;
"#,
        )
        .unwrap();
        let mut gpu = Gpu::new(DeviceSpec::v100(), 1 << 20);
        let x: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let xp = gpu.alloc_upload_f32(&x);
        let params = ParamBuilder::new().push_ptr(xp).build();
        // Grid of 2 blocks × 32 threads; V100 has 80 SMs so one wave covers
        // everything and both blocks are simulated.
        let mut run = |strict_writeback| {
            let opts = TimingOptions {
                strict_writeback,
                ..Default::default()
            };
            let dims = LaunchDims::linear(2, 32);
            simulate(&mut gpu, &m, dims, &params, Model::OneWave, opts)
                .unwrap()
                .0
        };
        let default = run(false);
        let strict = run(true);
        assert_eq!(format!("{default:?}"), format!("{strict:?}"));
        let out = gpu.mem.download_f32(xp, 64).unwrap();
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, (i * i) as f32);
        }
    }
}

//! `simprof` — per-instruction stall-attribution profiling for the timing
//! model (our equivalent of Nsight Compute's per-SASS-line counters, §7.2 of
//! the paper).
//!
//! When [`crate::TimingOptions::profile`] is set, the cycle loop under
//! [`crate::simulate`] charges every scheduler-cycle of the simulated wave
//! to exactly one bucket:
//!
//! * **issued** — an instruction left the scheduler; charged to its SASS line;
//! * a **stall cause** — nothing issued; charged to the line the
//!   highest-priority blocked warp was *about to* issue (priority: barrier >
//!   scoreboard > MIO queue > stall count > pipe busy), matching how Nsight's
//!   warp-state sampling names the instruction that waits;
//! * **yield switch** — the scheduler is recovering from a warp switch or a
//!   cleared yield flag; charged to the line that caused it;
//! * **empty** — no live warp on the scheduler.
//!
//! This makes the books balance exactly:
//! `Σ_lines (issue + stalls) + empty == schedulers × wave_cycles`,
//! which the report prints as a reconciliation line and the tests assert.
//! It is the simulator's one stall decomposition; the hardware counters
//! ([`crate::counters`]) reconcile with it.
//! Bank-conflict cycles (register-bank and shared-memory) are *pipe*
//! occupancy, not issue slots, so they are tracked per line as a separate
//! column outside the sum.

use sass::Module;

/// Scheduler-idle causes, in attribution-priority order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StallCause {
    /// Warp parked at `BAR.SYNC`.
    Barrier = 0,
    /// Control-code wait mask on a pending scoreboard.
    Scoreboard = 1,
    /// MIO (shared-memory / global) queue full.
    MioQueue = 2,
    /// Control-code stall count not yet elapsed.
    StallCount = 3,
    /// FP32/INT issue port still occupied.
    PipeBusy = 4,
}

impl StallCause {
    pub const ALL: [StallCause; 5] = [
        StallCause::Barrier,
        StallCause::Scoreboard,
        StallCause::MioQueue,
        StallCause::StallCount,
        StallCause::PipeBusy,
    ];

    pub fn name(self) -> &'static str {
        match self {
            StallCause::Barrier => "barrier",
            StallCause::Scoreboard => "scoreboard",
            StallCause::MioQueue => "mio_queue",
            StallCause::StallCount => "stall_count",
            StallCause::PipeBusy => "pipe_busy",
        }
    }
}

/// Stall cycles by cause, plus the yield-switch recovery column.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// Indexed by [`StallCause`].
    pub by_cause: [u64; 5],
    /// Scheduler slots lost recovering from a warp switch / cleared yield
    /// flag caused by this line (§5.1.4's "one more clock cycle").
    pub yield_switch: u64,
}

impl StallBreakdown {
    /// All stall cycles attributed to the line.
    pub fn total(&self) -> u64 {
        self.by_cause.iter().sum::<u64>() + self.yield_switch
    }
}

/// Profile of one SASS line (one instruction index in the module).
#[derive(Clone, Debug, Default)]
pub struct LineProfile {
    /// Warp-instructions issued from this line during the wave, each in
    /// one scheduler issue slot.
    pub executed: u64,
    /// Scheduler slots the wave lost waiting *on this line*.
    pub stalls: StallBreakdown,
    /// Extra pipe cycles from register-bank or shared-memory bank conflicts
    /// this line caused (pipe occupancy, outside the issue-slot sum).
    pub bank_conflict_cycles: u64,
    /// Disassembly text (control code, guard and operands), for reports.
    pub text: String,
}

impl LineProfile {
    /// Issue + stall cycles: the line's total claim on scheduler slots.
    pub fn slot_cycles(&self) -> u64 {
        self.executed + self.stalls.total()
    }
}

/// A named instruction-index range `[start, end)` mapping profile lines back
/// to a kernel phase (setup / main loop / epilogue / ...). Emitted by
/// `kernels::emit` and repaired alongside the schedule, so the ranges stay
/// valid after NOP insertion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Region {
    pub name: String,
    pub start: u32,
    pub end: u32,
}

impl Region {
    pub fn contains(&self, pc: u32) -> bool {
        pc >= self.start && pc < self.end
    }
}

/// Full profile of one simulated wave.
#[derive(Clone, Debug, Default)]
pub struct KernelProfile {
    /// Warp schedulers per SM during the run.
    pub schedulers: u32,
    /// Cycles of the simulated wave (same as `KernelTiming::wave_cycles`).
    pub wave_cycles: u64,
    /// Scheduler-cycles with no live warp assigned.
    pub empty_cycles: u64,
    /// Per-instruction-index profile, length == module instruction count.
    pub lines: Vec<LineProfile>,
    /// Named kernel phases, when the emitter provided them.
    pub regions: Vec<Region>,
}

impl KernelProfile {
    /// The region containing `pc`, if any. Inner (later-emitted) regions win
    /// on overlap so `main_loop` can sit inside a whole-kernel region.
    pub fn region_of(&self, pc: u32) -> Option<&Region> {
        self.regions.iter().rev().find(|r| r.contains(pc))
    }

    /// Scheduler-cycles attributed across all buckets. The profiling
    /// invariant is `attributed_cycles() == schedulers * wave_cycles`.
    pub fn attributed_cycles(&self) -> u64 {
        self.empty_cycles + self.lines.iter().map(|l| l.slot_cycles()).sum::<u64>()
    }

    /// Accumulate `k` copies of `other` into `self` — the device model's
    /// merge across an SM's waves (with `k > 1` for fast-forwarded
    /// steady-state waves) and then across SMs. Per-line tallies are linear,
    /// so the `attributed == schedulers × wave_cycles` identity survives
    /// with `wave_cycles` accumulating busy scheduler-cycles (the sum over
    /// SMs, not the device makespan).
    pub fn add_scaled(&mut self, other: &KernelProfile, k: u64) {
        debug_assert_eq!(self.schedulers, other.schedulers);
        debug_assert_eq!(self.lines.len(), other.lines.len());
        self.wave_cycles += k * other.wave_cycles;
        self.empty_cycles += k * other.empty_cycles;
        for (l, o) in self.lines.iter_mut().zip(&other.lines) {
            l.executed += k * o.executed;
            for c in 0..5 {
                l.stalls.by_cause[c] += k * o.stalls.by_cause[c];
            }
            l.stalls.yield_switch += k * o.stalls.yield_switch;
            l.bank_conflict_cycles += k * o.bank_conflict_cycles;
        }
    }

    /// Line indices sorted hottest-first by issue+stall slot cycles.
    pub fn hot_lines(&self, n: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.lines.len())
            .filter(|&i| self.lines[i].slot_cycles() > 0)
            .collect();
        idx.sort_by_key(|&i| std::cmp::Reverse(self.lines[i].slot_cycles()));
        idx.truncate(n);
        idx
    }

    /// Aggregate issue+stall slot cycles per named region, in region order,
    /// with an `<unattributed>` bucket for lines outside every region.
    pub fn region_totals(&self) -> Vec<(String, u64, u64)> {
        let mut totals: Vec<(String, u64, u64)> = self
            .regions
            .iter()
            .map(|r| (r.name.clone(), 0, 0))
            .collect();
        let mut other = (0u64, 0u64);
        for (pc, l) in self.lines.iter().enumerate() {
            let cycles = l.slot_cycles();
            if cycles == 0 && l.executed == 0 {
                continue;
            }
            match self.regions.iter().position(|r| r.contains(pc as u32)) {
                Some(i) => {
                    totals[i].1 += l.executed;
                    totals[i].2 += cycles;
                }
                None => {
                    other.0 += l.executed;
                    other.1 += cycles;
                }
            }
        }
        if other != (0, 0) {
            totals.push(("<unattributed>".into(), other.0, other.1));
        }
        totals
    }
}

/// Wave-profile collector driven by the cycle loop in `timing.rs`.
///
/// Per visited cycle the loop classifies every scheduler into a
/// [`SchedClass`], then calls [`Collector::commit`] with the number of
/// cycles the classification stands for (1 normally; the dead-time jump
/// width when nothing could issue).
pub(crate) struct Collector {
    lines: Vec<LineProfile>,
    empty: u64,
    /// Scratch: this cycle's classification per scheduler.
    pub class: Vec<SchedClass>,
    /// Last line issued per scheduler (yield-switch attribution target).
    pub last_pc: Vec<Option<u32>>,
}

/// What one scheduler did in one visited cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SchedClass {
    Issued,
    Blocked(StallCause, u32),
    /// Recovering from a warp switch or cleared yield flag caused by `pc`.
    YieldRecover(u32),
    Empty,
}

impl Collector {
    pub fn new(module: &Module, schedulers: usize) -> Self {
        let lines = module
            .insts
            .iter()
            .map(|inst| LineProfile {
                text: sass::disasm::inst_text(inst),
                ..Default::default()
            })
            .collect();
        Collector {
            lines,
            empty: 0,
            class: vec![SchedClass::Empty; schedulers],
            last_pc: vec![None; schedulers],
        }
    }

    /// Record that scheduler `s` issued line `pc` this cycle: the issue
    /// slot is the line's.
    pub fn issued(&mut self, s: usize, pc: u32) {
        self.class[s] = SchedClass::Issued;
        self.last_pc[s] = Some(pc);
        self.lines[pc as usize].executed += 1;
    }

    /// Extra pipe cycles from a bank conflict on `pc`.
    pub fn bank_conflict(&mut self, pc: u32, cycles: u64) {
        self.lines[pc as usize].bank_conflict_cycles += cycles;
    }

    /// Charge the cycle's classifications; `span` cycles elapsed since the
    /// classification was made (1 unless the loop jumped over dead time).
    pub fn commit(&mut self, span: u64) {
        for class in &mut self.class {
            match *class {
                // `issued` charged the slot; an issue always advances time
                // by exactly one cycle.
                SchedClass::Issued => debug_assert_eq!(span, 1),
                SchedClass::Blocked(cause, pc) => {
                    self.lines[pc as usize].stalls.by_cause[cause as usize] += span;
                }
                SchedClass::YieldRecover(pc) => {
                    self.lines[pc as usize].stalls.yield_switch += span;
                }
                SchedClass::Empty => self.empty += span,
            }
            *class = SchedClass::Empty;
        }
    }

    pub fn finish(self, wave_cycles: u64) -> KernelProfile {
        KernelProfile {
            schedulers: self.class.len() as u32,
            wave_cycles,
            empty_cycles: self.empty,
            lines: self.lines,
            regions: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(executed: u64, stall: u64) -> LineProfile {
        LineProfile {
            executed,
            stalls: StallBreakdown {
                by_cause: [stall, 0, 0, 0, 0],
                yield_switch: 0,
            },
            ..Default::default()
        }
    }

    #[test]
    fn attribution_sums() {
        let p = KernelProfile {
            schedulers: 4,
            wave_cycles: 10,
            empty_cycles: 30,
            lines: vec![line(3, 2), line(5, 0)],
            ..Default::default()
        };
        assert_eq!(p.attributed_cycles(), 30 + 3 + 2 + 5);
    }

    #[test]
    fn regions_inner_wins() {
        let p = KernelProfile {
            regions: vec![
                Region {
                    name: "kernel".into(),
                    start: 0,
                    end: 100,
                },
                Region {
                    name: "main_loop".into(),
                    start: 10,
                    end: 50,
                },
            ],
            ..Default::default()
        };
        assert_eq!(p.region_of(5).unwrap().name, "kernel");
        assert_eq!(p.region_of(20).unwrap().name, "main_loop");
        assert!(p.region_of(200).is_none());
    }

    #[test]
    fn hot_lines_sorted() {
        let p = KernelProfile {
            lines: vec![line(1, 0), line(10, 5), line(3, 9)],
            ..Default::default()
        };
        assert_eq!(p.hot_lines(2), vec![1, 2]);
    }
}

//! Full-device, multi-wave timing model: the
//! [`Device`](crate::Model::Device) and
//! [`DeviceExact`](crate::Model::DeviceExact) models of [`crate::simulate`].
//!
//! The one-wave model times one steady-state wave on one SM and
//! extrapolates `waves = ceil(total / (resident × S))`. That arithmetic
//! mistimes every grid whose last wave is partial: a handful of straggler
//! blocks is charged a full-device wave, and cross-SM tail imbalance is
//! invisible. This module fixes that by simulating the whole
//! device:
//!
//! * a **block dispatcher** places every thread block of the launch on its
//!   SM — static round-robin, block `b` on SM `b mod S`, like hardware's
//!   initial distribution of an even grid;
//! * each SM consumes its blocks in waves of at most `resident` blocks and
//!   runs the existing decoded-table/cycle-skipping wave loop
//!   (`crate::timing::simulate_wave`) per wave, with the SM's L1/L2 image
//!   and memory-backend backlog carried from wave to wave; idle SMs (no
//!   blocks assigned) are never simulated, so they cost nothing;
//! * the L2/DRAM **bandwidth share** charged inside a wave is
//!   `1/busy_sms(wave)` of the device, not `1/S`, so the tail waves of an
//!   uneven grid see their true (larger) share;
//! * SMs are **sharded across worker threads** on the functional
//!   launchers' walk ([`crate::launch`]): each worker claims the next
//!   planned SM from one atomic counter and runs all of that SM's waves
//!   against the shared word arena, and results merge in SM-index order.
//!   Per-SM simulations are mutually independent (the share curve is
//!   precomputed from the dispatch alone), so `KernelTiming`, `HwCounters`
//!   and stall profiles are bit-stable under any `jobs` value, and at most
//!   `jobs` SM states (each with its own L2 image) are alive at once.
//!
//! **Steady-state fast-forward.** The paper's kernels run thousands of
//! identical blocks; simulating every wave of every SM would cost hundreds
//! of times the one-wave model. Once two consecutive full waves of an SM
//! agree on cycle count to within 1/128, the following full waves with the
//! same bandwidth share are charged at the last simulated wave's cost and
//! their tallies are scaled in (one scaled add, `Tally::add_scaled`, that
//! also folds SMs into the device); each share transition and the final
//! partial wave are always simulated exactly.
//!
//! The same steady-state assumption applies **across SMs**: round-robin
//! dispatch of a 1-D grid produces at most two SM classes (the first
//! `total mod S` SMs own one extra block), and SMs within a class differ
//! only in block coordinates, hence memory addresses. By default one
//! representative SM per class is simulated and its tallies scaled by the
//! class size. The exact model disables both shortcuts — every SM, every
//! wave — and the golden tests pin that the default, the exact model and
//! the one-wave model all agree on exact-multiple grids.
//!
//! Semantics notes:
//!
//! * `KernelTiming::wave_cycles` from this model is the device **makespan**
//!   (the latest SM finish time); `HwCounters::wave_cycles` and
//!   `KernelProfile::wave_cycles` accumulate **busy** scheduler-cycles
//!   summed over SMs, so the `Σ issue + Σ stalls + empty = schedulers ×
//!   cycles` identities stay exact per SM and for the device totals.
//! * `flops`/`dram_bytes` are exact sums over all simulated (and
//!   fast-forwarded) waves — no grid-ratio scaling.
//! * Like the one-wave path, this is a timing model: blocks covered by a
//!   fast-forwarded wave are not executed at all, and simulated blocks
//!   execute only their timing slice ([`crate::slice`]). Use
//!   [`Gpu::launch`](crate::Gpu::launch) or
//!   [`Gpu::launch_parallel`](crate::Gpu::launch_parallel) for functional
//!   results.

use crate::launch::{claim_walk, LaunchError};
use crate::memory::GlobalMemory;
use crate::timing::{
    grid_coord, simulate_wave, KernelTiming, Launch, SmCarry, Tally, WaveParams, WholeLaunch,
};

/// Cap on recorded wave spans per simulated SM; past it the trace sets
/// `truncated` and keeps timing.
pub const WAVE_SPAN_CAP: usize = 1 << 20;

/// One contiguous chunk of one SM's timeline: a simulated wave and the
/// fast-forwarded repeats it stands for (device cycles, SM-local origin 0 —
/// SMs start together and run their waves back-to-back).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaveSpan {
    /// SM that ran the chunk (a class representative unless the model is
    /// [`DeviceExact`](crate::Model::DeviceExact)).
    pub sm: u32,
    /// First wave index the chunk covers.
    pub wave: u64,
    /// Chunk start, cycles since launch.
    pub start_cycle: u64,
    /// Cycles of the simulated wave (one repeat).
    pub cycles: u64,
    /// Waves the chunk stands for (`> 1` when fast-forwarded).
    pub repeats: u64,
    /// Blocks resident in each covered wave.
    pub blocks: u32,
    /// SMs sharing L2/DRAM bandwidth during the chunk.
    pub share_sms: u64,
}

impl WaveSpan {
    /// Total duration of the chunk, cycles.
    pub fn duration(&self) -> u64 {
        self.cycles * self.repeats
    }
}

/// The device-timeline record of one launch: every simulated SM's wave
/// spans, in SM-index order and per-SM time order. `bench`'s `convbench
/// --trace` renders this as a Chrome trace with one lane per SM.
#[derive(Clone, Debug, Default)]
pub struct DeviceTrace {
    pub spans: Vec<WaveSpan>,
    /// Some SM hit [`WAVE_SPAN_CAP`] and dropped spans (timing unaffected).
    pub truncated: bool,
    /// Device makespan (latest SM finish), cycles.
    pub makespan_cycles: u64,
}

/// Immutable per-launch context shared by every SM simulation.
struct Ctx<'a> {
    launch: &'a Launch<'a>,
    exact: bool,
    num_sms: u64,
    /// Dispatch shape: every SM owns `q` blocks, the first `r` SMs one more.
    q: u64,
    r: u64,
}

impl Ctx<'_> {
    /// Blocks dispatched to SM `sm` (round-robin: `sm, sm+S, sm+2S, …`).
    fn count(&self, sm: u64) -> u64 {
        self.q + u64::from(sm < self.r)
    }

    /// SMs still holding blocks at wave index `w` — the bandwidth-share
    /// curve. Monotone non-increasing in `w`, so a range is share-constant
    /// iff its two endpoints agree.
    fn share_at(&self, w: u64) -> u64 {
        let need = w.saturating_mul(self.launch.resident as u64);
        let mut n = 0;
        if self.q > need {
            n += self.num_sms - self.r;
        }
        if self.q + 1 > need {
            n += self.r;
        }
        n
    }

    /// Grid coordinates of the `n` blocks SM `sm` runs in wave `wave`.
    fn coords(&self, sm: u64, wave: u64, n: u32) -> Vec<[u32; 3]> {
        (0..n as u64)
            .map(|i| {
                grid_coord(
                    self.launch.dims,
                    sm + (wave * self.launch.resident as u64 + i) * self.num_sms,
                )
            })
            .collect()
    }
}

/// Per-SM accumulation across its waves.
#[derive(Default)]
struct SmAcc {
    tally: Tally,
    /// Wave spans recorded when tracing (empty otherwise).
    spans: Vec<WaveSpan>,
    spans_truncated: bool,
}

impl SmAcc {
    /// Record one advance chunk when tracing, respecting the span cap.
    fn trace_span(&mut self, span: WaveSpan) {
        if self.spans.len() < WAVE_SPAN_CAP {
            self.spans.push(span);
        } else {
            self.spans_truncated = true;
        }
    }
}

/// One SM's progress through its block list.
struct SmState {
    sm: u64,
    /// Full waves of `resident` blocks this SM runs.
    full: u64,
    /// Blocks in the trailing partial wave (0 if none, or once simulated).
    rem: u32,
    /// Next full-wave index to simulate.
    w: u64,
    prev_cycles: Option<u64>,
    carry: SmCarry,
    acc: SmAcc,
}

impl SmState {
    fn new(cx: &Ctx<'_>, sm: u64) -> Self {
        let count = cx.count(sm);
        let resident = cx.launch.resident;
        SmState {
            sm,
            full: count / resident as u64,
            rem: (count % resident as u64) as u32,
            w: 0,
            prev_cycles: None,
            carry: SmCarry::new(cx.launch),
            acc: SmAcc::default(),
        }
    }

    /// Simulate SM `sm`'s waves to completion.
    fn run(cx: &Ctx<'_>, sm: u64, mem: &GlobalMemory) -> Result<SmAcc, LaunchError> {
        let mut st = SmState::new(cx, sm);
        while st.w < st.full || st.rem > 0 {
            st.advance(cx, mem)?;
        }
        Ok(st.acc)
    }

    /// Simulate this SM's next wave (or fast-forward chunk).
    fn advance(&mut self, cx: &Ctx<'_>, mem: &GlobalMemory) -> Result<(), LaunchError> {
        let (resident, trace) = (cx.launch.resident, cx.launch.opts.trace);
        let (wave, n, share) = if self.w < self.full {
            (self.w, resident, cx.share_at(self.w))
        } else {
            (self.full, self.rem, cx.share_at(self.full))
        };
        let coords = cx.coords(self.sm, wave, n);
        let out = simulate_wave(
            mem,
            &WaveParams {
                launch: cx.launch,
                coords: &coords,
                share_sms: share as f64,
            },
            &mut self.carry,
        )?;
        let cycles = out.cycles;
        if n < resident {
            // Trailing partial wave: always simulated exactly, never
            // fast-forwarded.
            self.rem = 0;
            if trace {
                self.acc.trace_span(WaveSpan {
                    sm: self.sm as u32,
                    wave,
                    start_cycle: self.acc.tally.cycles,
                    cycles,
                    repeats: 1,
                    blocks: n,
                    share_sms: share,
                });
            }
            self.acc.tally.add_scaled(out, 1);
            return Ok(());
        }
        // Steady-state fast-forward: this wave plus every following full
        // wave with the same bandwidth share, once the cost has settled
        // (within 1/128 of the previous wave). `share_at` is monotone
        // non-increasing, so the share-constant run extends to the largest
        // wave index still at `share` (binary search); the wave after the
        // run sees fewer sharing SMs and is simulated afresh.
        let mut k = 1u64;
        if !cx.exact && self.w + 1 < self.full {
            if let Some(pc) = self.prev_cycles {
                let settled = cycles.abs_diff(pc).saturating_mul(128) <= pc;
                if settled && cx.share_at(self.w + 1) == share {
                    let (mut lo, mut hi) = (self.w + 1, self.full - 1);
                    while lo < hi {
                        let mid = lo + (hi - lo).div_ceil(2);
                        if cx.share_at(mid) == share {
                            lo = mid;
                        } else {
                            hi = mid - 1;
                        }
                    }
                    k = lo - self.w + 1;
                }
            }
        }
        self.prev_cycles = Some(cycles);
        if trace {
            self.acc.trace_span(WaveSpan {
                sm: self.sm as u32,
                wave,
                start_cycle: self.acc.tally.cycles,
                cycles,
                repeats: k,
                blocks: n,
                share_sms: share,
            });
        }
        self.acc.tally.add_scaled(out, k);
        self.w += k;
        Ok(())
    }
}

/// Simulate `launch` on the full device (see the module docs), every SM
/// and every wave individually when `exact`. Returns the device trace when
/// `launch.opts.trace` is set.
pub(crate) fn full_device(
    mem: &GlobalMemory,
    launch: &Launch<'_>,
    exact: bool,
) -> Result<(KernelTiming, Option<DeviceTrace>), LaunchError> {
    let Launch {
        device, dims, opts, ..
    } = *launch;
    let total_blocks = dims.num_blocks();
    let num_sms = device.num_sms as u64;
    let busy = total_blocks.min(num_sms) as usize;
    let cx = Ctx {
        launch,
        exact,
        num_sms,
        q: total_blocks / num_sms,
        r: total_blocks % num_sms,
    };

    // The round-robin dispatch produces at most two SM classes: the first
    // `r` SMs own `q + 1` blocks, the rest own `q`. Within a class the
    // per-SM simulations are identical except for block coordinates (hence
    // memory addresses) — for the paper's uniformly tiled kernels the same
    // steady-state assumption the wave fast-forward rests on. By default
    // one representative SM per class is simulated and its tallies scaled
    // by the class size; `exact` simulates every SM individually.
    // Exact-multiple grids have a single class, so the golden one-wave
    // agreement is unaffected by the choice.
    let plan: Vec<(u64, u64)> = if exact {
        (0..busy as u64).map(|sm| (sm, 1)).collect()
    } else {
        let r = cx.r;
        let mut v = Vec::new();
        if r > 0 {
            // Representative SM 0, class of the `q + 1`-block SMs.
            v.push((0, r.min(busy as u64)));
        }
        if cx.q > 0 && (busy as u64) > r {
            // Representative SM `r`, class of the `q`-block SMs.
            v.push((r, busy as u64 - r));
        }
        v
    };

    // Workers claim planned SMs in plan order and run each to completion;
    // per-SM results are independent of which worker runs them, so the
    // merge below is bit-stable for any worker count.
    let done = claim_walk(plan.len() as u64, opts.jobs, Vec::new, |done, i| {
        done.push((i, SmState::run(&cx, plan[i as usize].0, mem)?));
        Ok(())
    })?;
    let mut results: Vec<(u64, SmAcc)> = done.into_iter().flatten().collect();
    results.sort_unstable_by_key(|&(i, _)| i);

    // Deterministic merge, in SM-index order: one scaled add per class
    // (`dev.cycles` sums busy cycles, `dev.region_cycles` region cycles),
    // and the device-only maxima beside it.
    let mut dev = Tally::default();
    let (mut makespan, mut waves, mut region_cycles_max) = (0u64, 0u64, 0u64);
    let mut trace = opts.trace.then(DeviceTrace::default);
    for ((_, acc), &(_, k)) in results.into_iter().zip(plan.iter()) {
        if let Some(tr) = &mut trace {
            // Plan order is SM-index order, so spans land lane-sorted.
            tr.spans.extend_from_slice(&acc.spans);
            tr.truncated |= acc.spans_truncated;
        }
        makespan = makespan.max(acc.tally.cycles);
        waves = waves.max(acc.tally.waves);
        region_cycles_max = region_cycles_max.max(acc.tally.region_cycles);
        dev.add_scaled(acc.tally, k);
    }

    if let Some(tr) = &mut trace {
        tr.makespan_cycles = makespan;
    }
    let wave_cycles = makespan.max(1);
    let whole = WholeLaunch {
        wave_cycles,
        waves,
        compute_s: wave_cycles as f64 / device.clock_hz,
        flops: dev.flops as f64,
        dram_bytes: dev.dram_bytes,
        region_cycles: region_cycles_max,
    };
    Ok((dev.finish(launch, whole), trace))
}

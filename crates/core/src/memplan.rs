//! `memplan` — live-range workspace planning for the network runtime.
//!
//! A network execution needs one device buffer per inter-layer activation
//! plus each layer's algorithm workspace. Buffers have *live ranges* —
//! inclusive `[first_use, last_use]` intervals over the graph's node
//! timeline — and two buffers may share arena space iff their ranges do not
//! overlap. [`plan_arena`] assigns every buffer an offset in a single
//! workspace arena under one of two policies:
//!
//! * [`ArenaPolicy::Reuse`] — greedy linear scan in `first_use` order:
//!   expired buffers release their slots back to a coalescing free list,
//!   new buffers take the first hole that fits (first-fit) and grow the
//!   arena only when no hole does. This is the classic linear-scan register
//!   allocator transplanted to byte ranges, and it is what makes the fused
//!   kernel's tiny workspace a *network-level* number: algorithms with
//!   multi-hundred-MB transform workspaces (`WINOGRAD_NONFUSED`, `GEMM`,
//!   Fig. 14) force the arena peak up even though the buffers are
//!   short-lived, while the fused path rides inside the activation
//!   footprint.
//! * [`ArenaPolicy::NoReuse`] — bump allocation, every buffer its own
//!   slot; the peak is the sum of all aligned sizes. The baseline that
//!   makes reuse measurable.
//!
//! The planner is deterministic (stable sort, index tie-break) and checked:
//! [`ArenaPlan::validate`] re-verifies the no-overlap/fit/peak invariants
//! from scratch, and `core/tests/memory_planner.rs` property-tests them
//! over hundreds of random request sets.

/// Arena slot alignment, bytes. Matches the simulator allocator's
/// granularity so planned offsets are always launch-legal.
pub const ARENA_ALIGN: u64 = 256;

/// One buffer the network execution needs, with its live range over the
/// node timeline (inclusive on both ends).
#[derive(Clone, Debug)]
pub struct BufferReq {
    /// Diagnostic name (`"act:conv2_0"`, `"ws:conv3_1"`, ...).
    pub name: String,
    /// Requested size; zero-sized requests get a zero-width slot.
    pub bytes: u64,
    /// First node index that touches the buffer.
    pub first_use: usize,
    /// Last node index that touches the buffer (`>= first_use`).
    pub last_use: usize,
}

impl BufferReq {
    /// Whether the live ranges of `self` and `other` overlap in time.
    pub fn overlaps(&self, other: &BufferReq) -> bool {
        self.first_use <= other.last_use && other.first_use <= self.last_use
    }

    fn aligned(&self) -> u64 {
        self.bytes.div_ceil(ARENA_ALIGN) * ARENA_ALIGN
    }
}

/// Buffer-assignment policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArenaPolicy {
    /// Linear-scan reuse: expired buffers' space is recycled.
    Reuse,
    /// Bump allocation: every buffer its own slot (peak = sum).
    NoReuse,
}

impl ArenaPolicy {
    pub fn name(self) -> &'static str {
        match self {
            ArenaPolicy::Reuse => "reuse",
            ArenaPolicy::NoReuse => "noreuse",
        }
    }
}

/// One buffer's placement: `[offset, offset + bytes)` in the arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slot {
    pub offset: u64,
    /// Aligned slot extent (`>=` the request's `bytes`).
    pub bytes: u64,
}

/// The planner's output: one slot per request (same order) plus the arena
/// high-water mark.
#[derive(Clone, Debug)]
pub struct ArenaPlan {
    pub policy: ArenaPolicy,
    pub slots: Vec<Slot>,
    /// Arena bytes needed: the maximum `offset + bytes` over all slots.
    pub peak_bytes: u64,
}

impl ArenaPlan {
    /// Re-verify the planner's invariants from scratch:
    /// every slot fits its request, stays aligned and inside the peak, and
    /// no two *simultaneously live* buffers overlap in the arena.
    /// Returns a description of the first violation, if any.
    pub fn validate(&self, reqs: &[BufferReq]) -> Result<(), String> {
        if self.slots.len() != reqs.len() {
            return Err(format!(
                "{} slots for {} requests",
                self.slots.len(),
                reqs.len()
            ));
        }
        for (r, s) in reqs.iter().zip(&self.slots) {
            if r.first_use > r.last_use {
                return Err(format!("{}: inverted live range", r.name));
            }
            if s.bytes < r.bytes {
                return Err(format!(
                    "{}: slot {} < request {}",
                    r.name, s.bytes, r.bytes
                ));
            }
            if s.offset % ARENA_ALIGN != 0 {
                return Err(format!("{}: misaligned offset {}", r.name, s.offset));
            }
            if s.offset + s.bytes > self.peak_bytes {
                return Err(format!("{}: slot exceeds arena peak", r.name));
            }
        }
        for i in 0..reqs.len() {
            for j in i + 1..reqs.len() {
                if reqs[i].bytes == 0 || reqs[j].bytes == 0 {
                    continue;
                }
                if !reqs[i].overlaps(&reqs[j]) {
                    continue;
                }
                let (a, b) = (&self.slots[i], &self.slots[j]);
                if a.offset < b.offset + b.bytes && b.offset < a.offset + a.bytes {
                    return Err(format!(
                        "{} and {} are live together but share arena bytes \
                         ([{}, {}) vs [{}, {}))",
                        reqs[i].name,
                        reqs[j].name,
                        a.offset,
                        a.offset + a.bytes,
                        b.offset,
                        b.offset + b.bytes,
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Plan the arena for `reqs` under `policy`. Deterministic: the reuse scan
/// orders buffers by `(first_use, input index)` and the free list is kept
/// sorted by offset.
pub fn plan_arena(reqs: &[BufferReq], policy: ArenaPolicy) -> ArenaPlan {
    match policy {
        ArenaPolicy::NoReuse => {
            let mut off = 0u64;
            let slots = reqs
                .iter()
                .map(|r| {
                    let s = Slot {
                        offset: off,
                        bytes: r.aligned(),
                    };
                    off += s.bytes;
                    s
                })
                .collect();
            ArenaPlan {
                policy,
                slots,
                peak_bytes: off,
            }
        }
        ArenaPolicy::Reuse => plan_reuse(reqs),
    }
}

fn plan_reuse(reqs: &[BufferReq]) -> ArenaPlan {
    let mut order: Vec<usize> = (0..reqs.len()).collect();
    order.sort_by_key(|&i| (reqs[i].first_use, i));

    let mut slots = vec![
        Slot {
            offset: 0,
            bytes: 0
        };
        reqs.len()
    ];
    // Free holes, sorted by offset, non-adjacent (coalesced on insert).
    let mut holes: Vec<Slot> = Vec::new();
    // Indices placed and not yet expired, with their slots.
    let mut active: Vec<usize> = Vec::new();
    let mut arena_end = 0u64;

    for &i in &order {
        let req = &reqs[i];
        // Expire buffers whose live range ended before this one starts.
        let mut a = 0;
        while a < active.len() {
            let j = active[a];
            if reqs[j].last_use < req.first_use {
                active.swap_remove(a);
                if slots[j].bytes > 0 {
                    free_hole(&mut holes, slots[j]);
                }
            } else {
                a += 1;
            }
        }
        let size = req.aligned();
        if size == 0 {
            continue; // zero-width slot at offset 0, never validated against
        }
        // First-fit over the free list, else grow the arena.
        let slot = match holes.iter().position(|h| h.bytes >= size) {
            Some(h) => {
                let hole = holes[h];
                if hole.bytes == size {
                    holes.remove(h);
                } else {
                    holes[h] = Slot {
                        offset: hole.offset + size,
                        bytes: hole.bytes - size,
                    };
                }
                Slot {
                    offset: hole.offset,
                    bytes: size,
                }
            }
            None => {
                let s = Slot {
                    offset: arena_end,
                    bytes: size,
                };
                arena_end += size;
                s
            }
        };
        slots[i] = slot;
        active.push(i);
    }

    ArenaPlan {
        policy: ArenaPolicy::Reuse,
        slots,
        peak_bytes: arena_end,
    }
}

/// Insert a released slot into the sorted free list, coalescing with
/// adjacent holes.
fn free_hole(holes: &mut Vec<Slot>, slot: Slot) {
    let pos = holes.partition_point(|h| h.offset < slot.offset);
    holes.insert(pos, slot);
    // Coalesce with the successor, then the predecessor.
    if pos + 1 < holes.len() && holes[pos].offset + holes[pos].bytes == holes[pos + 1].offset {
        holes[pos].bytes += holes[pos + 1].bytes;
        holes.remove(pos + 1);
    }
    if pos > 0 && holes[pos - 1].offset + holes[pos - 1].bytes == holes[pos].offset {
        holes[pos - 1].bytes += holes[pos].bytes;
        holes.remove(pos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(name: &str, bytes: u64, first: usize, last: usize) -> BufferReq {
        BufferReq {
            name: name.into(),
            bytes,
            first_use: first,
            last_use: last,
        }
    }

    #[test]
    fn disjoint_lifetimes_share_space() {
        let reqs = vec![req("a", 1000, 0, 1), req("b", 1000, 2, 3)];
        let plan = plan_arena(&reqs, ArenaPolicy::Reuse);
        plan.validate(&reqs).unwrap();
        assert_eq!(plan.slots[0].offset, plan.slots[1].offset, "b reuses a");
        assert_eq!(plan.peak_bytes, 1024);
        let bump = plan_arena(&reqs, ArenaPolicy::NoReuse);
        bump.validate(&reqs).unwrap();
        assert_eq!(bump.peak_bytes, 2048);
    }

    #[test]
    fn live_overlap_forces_separate_slots() {
        let reqs = vec![req("a", 512, 0, 2), req("b", 512, 1, 3)];
        let plan = plan_arena(&reqs, ArenaPolicy::Reuse);
        plan.validate(&reqs).unwrap();
        assert_ne!(plan.slots[0].offset, plan.slots[1].offset);
        assert_eq!(plan.peak_bytes, 1024);
    }

    #[test]
    fn holes_coalesce_for_large_successors() {
        // Two adjacent 512B buffers die; a 1024B buffer must fit in their
        // coalesced hole without growing the arena.
        let reqs = vec![
            req("a", 512, 0, 0),
            req("b", 512, 0, 0),
            req("c", 1024, 1, 1),
        ];
        let plan = plan_arena(&reqs, ArenaPolicy::Reuse);
        plan.validate(&reqs).unwrap();
        assert_eq!(plan.peak_bytes, 1024);
        assert_eq!(plan.slots[2].offset, 0);
    }

    #[test]
    fn zero_sized_requests_are_free() {
        let reqs = vec![req("a", 0, 0, 5), req("b", 300, 0, 5)];
        for policy in [ArenaPolicy::Reuse, ArenaPolicy::NoReuse] {
            let plan = plan_arena(&reqs, policy);
            plan.validate(&reqs).unwrap();
            assert_eq!(plan.peak_bytes, 512, "{policy:?}");
        }
    }

    #[test]
    fn validate_catches_forged_overlap() {
        let reqs = vec![req("a", 512, 0, 2), req("b", 512, 1, 3)];
        let mut plan = plan_arena(&reqs, ArenaPolicy::Reuse);
        plan.slots[1] = plan.slots[0];
        assert!(plan.validate(&reqs).unwrap_err().contains("share arena"));
    }
}

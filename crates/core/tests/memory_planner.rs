//! Property tests for the live-range memory planner: across hundreds of
//! random request sets, both policies must produce validating plans — no
//! two simultaneously live buffers overlap, every buffer fits its slot,
//! and the arena peak never exceeds the sum of all (aligned) buffers.

use tensor::XorShiftRng;
use wino_core::memplan::{plan_arena, ArenaPolicy, BufferReq, ARENA_ALIGN};
use wino_core::{AlgoPolicy, DirectTimer, NetGraph};

/// Sum of aligned sizes — the no-reuse peak, and an upper bound on any
/// policy's peak.
fn sum_aligned_bytes(reqs: &[BufferReq]) -> u64 {
    reqs.iter()
        .map(|r| r.bytes.div_ceil(ARENA_ALIGN) * ARENA_ALIGN)
        .sum()
}

fn random_reqs(rng: &mut XorShiftRng) -> Vec<BufferReq> {
    let n_nodes = 1 + rng.gen_index(12);
    let n_bufs = 1 + rng.gen_index(24);
    (0..n_bufs)
        .map(|i| {
            let first = rng.gen_index(n_nodes);
            let last = first + rng.gen_index(n_nodes - first);
            // Mix zero-sized, tiny (sub-alignment), and multi-KB buffers.
            let bytes = match rng.gen_index(4) {
                0 => 0,
                1 => rng.gen_index(256) as u64,
                _ => (1 + rng.gen_index(64 * 1024)) as u64,
            };
            BufferReq {
                name: format!("buf{i}"),
                bytes,
                first_use: first,
                last_use: last,
            }
        })
        .collect()
}

#[test]
fn random_request_sets_always_validate() {
    let mut rng = XorShiftRng::new(0xC0FFEE);
    for case in 0..200 {
        let reqs = random_reqs(&mut rng);
        let bound = sum_aligned_bytes(&reqs);
        let reuse = plan_arena(&reqs, ArenaPolicy::Reuse);
        let bump = plan_arena(&reqs, ArenaPolicy::NoReuse);
        for plan in [&reuse, &bump] {
            plan.validate(&reqs)
                .unwrap_or_else(|e| panic!("case {case} ({:?}): {e}", plan.policy));
            assert!(
                plan.peak_bytes <= bound,
                "case {case} ({:?}): peak {} above sum-of-buffers {bound}",
                plan.policy,
                plan.peak_bytes
            );
        }
        assert_eq!(bump.peak_bytes, bound, "bump allocation is exactly the sum");
        assert!(
            reuse.peak_bytes <= bump.peak_bytes,
            "case {case}: reuse ({}) must never lose to bump ({})",
            reuse.peak_bytes,
            bump.peak_bytes
        );
    }
}

#[test]
fn planner_is_deterministic() {
    let mut rng = XorShiftRng::new(7);
    for _ in 0..20 {
        let reqs = random_reqs(&mut rng);
        for policy in [ArenaPolicy::Reuse, ArenaPolicy::NoReuse] {
            let a = plan_arena(&reqs, policy);
            let b = plan_arena(&reqs, policy);
            assert_eq!(a.slots, b.slots);
            assert_eq!(a.peak_bytes, b.peak_bytes);
        }
    }
}

#[test]
fn reuse_strictly_beats_no_reuse_on_a_chain() {
    // A pinned layer-chain pattern: each buffer is consumed by the next
    // node, so linear scan folds the chain into two live slots while bump
    // allocation pays for all of them.
    let reqs: Vec<BufferReq> = (0..8)
        .map(|i| BufferReq {
            name: format!("act{i}"),
            bytes: 4096,
            first_use: i,
            last_use: i + 1,
        })
        .collect();
    let reuse = plan_arena(&reqs, ArenaPolicy::Reuse);
    let bump = plan_arena(&reqs, ArenaPolicy::NoReuse);
    reuse.validate(&reqs).unwrap();
    bump.validate(&reqs).unwrap();
    assert!(
        reuse.peak_bytes < bump.peak_bytes,
        "reuse {} must strictly beat bump {}",
        reuse.peak_bytes,
        bump.peak_bytes
    );
    // Exactly: at most 3 chain links overlap pairwise at a node boundary,
    // but linear scan needs only the two live at once plus the newest.
    assert_eq!(bump.peak_bytes, 8 * 4096);
    assert!(reuse.peak_bytes <= 3 * 4096);
}

#[test]
fn network_arena_requests_validate_for_every_policy() {
    // The real producer: arena requests from planned networks (workspaces
    // hoisted and unhoisted) must validate under both policies.
    let device = gpusim::DeviceSpec::v100();
    let g = NetGraph::smoke(32);
    for policy in [AlgoPolicy::Auto, AlgoPolicy::Baseline] {
        let plan = g.plan(&device, policy, &DirectTimer);
        plan.validate().unwrap();
        for hoisted in [true, false] {
            let choices = &plan.choices;
            let reqs = g.arena_requests(choices, hoisted);
            for arena_policy in [ArenaPolicy::Reuse, ArenaPolicy::NoReuse] {
                plan_arena(&reqs, arena_policy).validate(&reqs).unwrap();
            }
        }
    }
}

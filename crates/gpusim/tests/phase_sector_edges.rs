//! Edge cases of the two address-level cost models the counters are built
//! on: `timing::smem_phases` (bank conflicts, §4.3's Fig. 3 motivation)
//! and `timing::global_sectors_into` (32 B sector coalescing).

use gpusim::timing::{global_sectors_into, smem_phases};

fn global_sectors(addrs: &[u64], width: u32) -> Vec<u64> {
    let mut sectors = Vec::new();
    global_sectors_into(addrs, width, &mut sectors);
    sectors
}

// ---- shared-memory phases ----------------------------------------------------

/// All 32 lanes reading the same 4 B word is a broadcast: one phase.
#[test]
fn smem_full_warp_broadcast_is_one_phase() {
    let addrs = [100u32 * 4; 32];
    assert_eq!(smem_phases(&addrs, 4), 1);
}

/// Stride-4 32-bit: one word per bank, one phase. Stride-128 puts every
/// lane in bank 0 with *distinct* words: 32 serialized phases.
#[test]
fn smem_32bit_stride_extremes() {
    let unit: Vec<u32> = (0..32).map(|i| i * 4).collect();
    assert_eq!(smem_phases(&unit, 4), 1);
    let stride128: Vec<u32> = (0..32).map(|i| i * 128).collect();
    assert_eq!(smem_phases(&stride128, 4), 32);
}

/// 64-bit accesses go out in two half-warp phases; unit stride keeps each
/// phase conflict-free, so the whole warp costs exactly 2.
#[test]
fn smem_64bit_unit_stride_is_two_phases() {
    let addrs: Vec<u32> = (0..32).map(|i| i * 8).collect();
    assert_eq!(smem_phases(&addrs, 8), 2);
}

/// A 64-bit access whose two words land in the same bank (stride 128
/// between the words is impossible for one access, but *between lanes* a
/// 128 B stride folds both words of all 16 lanes of a phase onto two
/// banks): 16 distinct words per bank per phase.
#[test]
fn smem_64bit_bank_pair_crossing_serializes() {
    // Lane i reads 8 B at i*128: words 32i and 32i+1, i.e. banks 0 and 1
    // for every lane. Each half-warp phase has 16 distinct words in each
    // of the two banks -> degree 16, two phases -> 32.
    let addrs: Vec<u32> = (0..32).map(|i| i * 128).collect();
    assert_eq!(smem_phases(&addrs, 8), 32);
}

/// 128-bit accesses go out in four quarter-warp phases. Unit stride:
/// each phase's 8 lanes cover all 32 banks once -> 4 phases total.
#[test]
fn smem_128bit_unit_stride_is_four_phases() {
    let addrs: Vec<u32> = (0..32).map(|i| i * 16).collect();
    assert_eq!(smem_phases(&addrs, 16), 4);
}

/// The hardware broadcast rule is per-phase: all lanes reading the same
/// 16 B still cost four phases (one per quarter-warp), never one.
#[test]
fn smem_128bit_broadcast_still_pays_four_phases() {
    let addrs = [64u32; 32];
    assert_eq!(smem_phases(&addrs, 16), 4);
}

/// The Fig. 3 failure mode: 128-bit reads at a 128 B stride look
/// broadcast-friendly across the warp but conflict inside every
/// quarter-warp phase (8 lanes x 4 words folded onto banks 0-3).
#[test]
fn smem_128bit_stride128_conflicts_within_phases() {
    let addrs: Vec<u32> = (0..32).map(|i| i * 128).collect();
    // Per phase: 8 lanes, words 32i..32i+3 -> banks 0..3 each hold 8
    // distinct words -> degree 8; 4 phases -> 32.
    assert_eq!(smem_phases(&addrs, 16), 32);
}

/// A partially-active warp (predication/tail) only pays for the lanes
/// that issued, and an empty access costs nothing.
#[test]
fn smem_partial_and_empty_warps() {
    assert_eq!(smem_phases(&[], 4), 0);
    let three: Vec<u32> = (0..3).map(|i| i * 4).collect();
    assert_eq!(smem_phases(&three, 4), 1);
    // 9 lanes of a 128-bit access: two phases (8 + 1 lanes), unit stride.
    let nine: Vec<u32> = (0..9).map(|i| i * 16).collect();
    assert_eq!(smem_phases(&nine, 16), 2);
}

/// Reference count: per phase, sort the words and charge the busiest
/// bank's number of distinct words. `smem_phases` counts a phase in one
/// pass and sorts only when some bank sees a second distinct word.
fn reference_phases(addrs: &[u32], width: u32) -> u32 {
    if addrs.is_empty() {
        return 0;
    }
    let words_per_lane = (width / 4).max(1);
    let lanes_per_phase = (32 / words_per_lane).max(1) as usize;
    addrs
        .chunks(lanes_per_phase)
        .map(|chunk| {
            let mut words: Vec<u32> = chunk
                .iter()
                .flat_map(|&a| (0..words_per_lane).map(move |w| a / 4 + w))
                .collect();
            words.sort_unstable();
            words.dedup();
            let mut per_bank = [0u32; 32];
            for w in words {
                per_bank[(w % 32) as usize] += 1;
            }
            per_bank.into_iter().max().unwrap().max(1)
        })
        .sum()
}

/// `smem_phases` agrees with the reference on adversarial patterns: every
/// conflict degree from 2 to 32 (lane `l` reads word `(l % d)·32 + l / d`,
/// so `d` distinct words share each bank), at every width, at misaligned
/// bases, broadcast, and on every partial (predicated) prefix.
#[test]
fn smem_phases_match_reference_on_adversarial_patterns() {
    for width in [4u32, 8, 16] {
        for degree in 1..=32u32 {
            for base in [0u32, 4, 8, 12, 20, 2, 1024 + 4] {
                let addrs: Vec<u32> = (0..32)
                    .map(|l| base + ((l % degree) * 32 + l / degree) * 4 * (width / 4))
                    .collect();
                for lanes in 0..=32 {
                    let a = &addrs[..lanes];
                    assert_eq!(
                        smem_phases(a, width),
                        reference_phases(a, width),
                        "width {width} degree {degree} base {base} lanes {lanes}: {a:?}"
                    );
                }
            }
        }
        let broadcast = [4096u32 + 8; 32];
        for lanes in 0..=32 {
            let a = &broadcast[..lanes];
            assert_eq!(smem_phases(a, width), reference_phases(a, width));
        }
    }
    // The full-warp 32-bit pattern costs exactly its degree.
    for degree in 1..=32u32 {
        let addrs: Vec<u32> = (0..32)
            .map(|l| ((l % degree) * 32 + l / degree) * 4)
            .collect();
        assert_eq!(smem_phases(&addrs, 4), degree, "degree {degree}");
    }
}

/// `smem_phases` agrees with the reference on random lane-address lists:
/// random widths and lane counts, with addresses drawn from pools of a few
/// words (many broadcasts and conflicts) up to thousands (mostly distinct),
/// at arbitrary byte alignment or with every lane 16 B aligned.
#[test]
fn smem_phases_match_reference_on_random_lists() {
    let mut rng = tensor::XorShiftRng::new(0x5EED_BA4C);
    for case in 0..20_000 {
        let width = [4u32, 8, 16][rng.gen_index(3)];
        let lanes = rng.gen_index(33);
        let pool = [2usize, 8, 64, 4096][rng.gen_index(4)];
        let stride = [4u32, 128, 132, 1, 16][rng.gen_index(5)];
        let align = [!0u32, !15][rng.gen_index(2)];
        let base = (rng.next_u32() % 1024) & align;
        let addrs: Vec<u32> = (0..lanes)
            .map(|_| base + rng.gen_index(pool) as u32 * stride)
            .collect();
        assert_eq!(
            smem_phases(&addrs, width),
            reference_phases(&addrs, width),
            "case {case}: width {width} addrs {addrs:?}"
        );
    }
}

// ---- global sectors ----------------------------------------------------------

/// Fully coalesced 32-bit loads: 32 lanes x 4 B = 128 B = four 32 B
/// sectors, regardless of lane order.
#[test]
fn sectors_coalesced_warp_is_four() {
    let mut addrs: Vec<u64> = (0..32).map(|i| i * 4).collect();
    assert_eq!(global_sectors(&addrs, 4).len(), 4);
    addrs.reverse();
    assert_eq!(global_sectors(&addrs, 4).len(), 4);
}

/// Aligned 128-bit loads: each lane owns a half sector; 32 lanes cover
/// 512 B = 16 sectors.
#[test]
fn sectors_aligned_128bit_warp_is_sixteen() {
    let addrs: Vec<u64> = (0..32).map(|i| i * 16).collect();
    assert_eq!(global_sectors(&addrs, 16).len(), 16);
}

/// Misaligned 128-bit loads split across sector boundaries: offset the
/// same warp by 24 B and every lane straddles two sectors, inflating the
/// footprint from 16 sectors to 17 (the splits overlap pairwise).
#[test]
fn sectors_unaligned_128bit_splits() {
    let addrs: Vec<u64> = (0..32).map(|i| i * 16 + 24).collect();
    let s = global_sectors(&addrs, 16);
    assert_eq!(s.len(), 17);
    // Sanity: one straddling access alone touches exactly two sectors.
    assert_eq!(global_sectors(&[24], 16).len(), 2);
    // ... and an aligned one exactly one.
    assert_eq!(global_sectors(&[32], 16).len(), 1);
}

/// Same-sector accesses dedup: a warp gathering 32 words from one 32 B
/// sector costs one sector, and sectors come back sorted and unique.
#[test]
fn sectors_dedup_and_sort() {
    let addrs: Vec<u64> = (0..32).map(|i| (i % 8) * 4).collect();
    assert_eq!(global_sectors(&addrs, 4), vec![0]);
    let scattered = [96u64, 0, 64, 0, 96];
    assert_eq!(global_sectors(&scattered, 4), vec![0, 2, 3]);
}

//! Property tests for the SIMT simulator.

use aco_simt::cache::Cache;
use aco_simt::coalesce::{coalesce_cc13_half_warp, lines_cc20, Transaction};
use aco_simt::prelude::*;
use aco_simt::rng::{park_miller, PmRng, PM_MODULUS};
use aco_simt::shared::bank_conflict_degree;
use aco_simt::{occupancy, Mask};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn cc13_transactions_cover_every_access_and_respect_bounds(
        addrs in prop::collection::vec(0u64..100_000, 1..16),
    ) {
        let addrs: Vec<u64> = addrs.into_iter().map(|a| a * 4).collect();
        let ts = coalesce_cc13_half_warp(&addrs);
        // Coverage: every 4-byte access inside some transaction window.
        for &a in &addrs {
            prop_assert!(ts.iter().any(|t| a >= t.base && a + 4 <= t.base + t.bytes as u64));
        }
        // At most one transaction per access; sizes in {32, 64, 128};
        // bases aligned to their size.
        prop_assert!(ts.len() <= addrs.len());
        for t in &ts {
            prop_assert!(matches!(t.bytes, 32 | 64 | 128));
            prop_assert_eq!(t.base % t.bytes as u64, 0);
        }
    }

    #[test]
    fn fermi_lines_are_distinct_aligned_and_minimal(
        addrs in prop::collection::vec(0u64..100_000, 1..32),
    ) {
        let addrs: Vec<u64> = addrs.into_iter().map(|a| a * 4).collect();
        let lines = lines_cc20(&addrs);
        for w in lines.windows(2) {
            prop_assert!(w[0] < w[1], "sorted and deduped");
        }
        for &l in &lines {
            prop_assert_eq!(l % 128, 0);
        }
        for &a in &addrs {
            prop_assert!(lines.contains(&(a & !127)));
        }
    }

    #[test]
    fn mask_algebra_laws(bits_a in any::<[bool; 64]>(), bits_b in any::<[bool; 64]>()) {
        let a = Mask::from_fn(64, |i| bits_a[i]);
        let b = Mask::from_fn(64, |i| bits_b[i]);
        prop_assert_eq!(a.and(&b).count(), b.and(&a).count());
        prop_assert_eq!(a.or(&b).count() + a.and(&b).count(), a.count() + b.count());
        prop_assert_eq!(a.not().count(), 64 - a.count());
        prop_assert_eq!(a.and_not(&b).count(), a.count() - a.and(&b).count());
        // Warp views partition the lanes.
        let total: usize = (0..a.warp_count()).map(|w| a.warp_bits(w).count_ones() as usize).sum();
        prop_assert_eq!(total, a.count());
    }

    #[test]
    fn park_miller_stays_in_range_and_never_sticks(seed in 0u32..u32::MAX) {
        let mut s = seed;
        for _ in 0..100 {
            s = park_miller(s);
            prop_assert!((1..PM_MODULUS).contains(&s));
        }
        let mut r = PmRng::new(seed);
        let v = r.next_f32();
        prop_assert!((0.0..=1.0).contains(&v));
    }

    #[test]
    fn occupancy_is_monotone_in_resources(
        block_pow in 5u32..9, // 32..256 threads
        regs in 1u32..40,
        shared_kb in 0u32..16,
    ) {
        let dev = DeviceSpec::tesla_c1060();
        let block = 1 << block_pow;
        let o = occupancy(&dev, block, regs, shared_kb * 1024, 10_000);
        prop_assert!(o.blocks_per_sm >= 1 || shared_kb * 1024 > dev.shared_mem_per_sm);
        prop_assert!(o.occupancy <= 1.0);
        // More registers can never increase residency.
        let o2 = occupancy(&dev, block, regs + 8, shared_kb * 1024, 10_000);
        prop_assert!(o2.blocks_per_sm <= o.blocks_per_sm);
        // More shared memory can never increase residency.
        let o3 = occupancy(&dev, block, regs, (shared_kb + 1) * 1024, 10_000);
        prop_assert!(o3.blocks_per_sm <= o.blocks_per_sm);
    }
}

/// A memory-streaming kernel whose grid shape is a proptest variable:
/// whatever the geometry, counters must balance.
struct Stream {
    buf: DevicePtr<f32>,
    n: u32,
}

impl Kernel for Stream {
    fn name(&self) -> &'static str {
        "stream"
    }
    fn run_block(&self, ctx: &mut BlockCtx, gm: &mut GlobalMem) {
        let i = ctx.global_thread_idx();
        let limit = ctx.splat_u32(self.n);
        let ok = ctx.ult(&i, &limit);
        ctx.if_then(gm, &ok, |ctx, gm| {
            let x = ctx.ld_global_f32(gm, self.buf, &i);
            let one = ctx.splat_f32(1.0);
            let y = ctx.fadd(&x, &one);
            ctx.st_global_f32(gm, self.buf, &i, &y);
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn launch_counters_balance_for_any_geometry(
        n in 1usize..5000,
        block_pow in 5u32..9,
    ) {
        let dev = DeviceSpec::tesla_c1060();
        let mut gm = GlobalMem::new();
        let buf = gm.alloc_f32(n);
        let block = 1u32 << block_pow;
        let grid = (n as u32).div_ceil(block);
        let k = Stream { buf, n: n as u32 };
        let r = launch(&dev, &LaunchConfig::new(grid, block), &k, &mut gm, SimMode::Full)
            .expect("valid launch");
        // Functional result: every element incremented exactly once.
        prop_assert!(gm.f32(buf).iter().all(|&v| v == 1.0));
        // Counter sanity: traffic at least the useful bytes, at most the
        // fully-uncoalesced worst case.
        let useful = (2 * 4 * n) as f64;
        prop_assert!(r.stats.dram_bytes >= useful);
        prop_assert!(r.stats.dram_bytes <= useful * 16.0);
        prop_assert!(r.stats.ld_transactions >= 1.0);
        prop_assert!(r.time.total_ms > 0.0);
    }

    #[test]
    fn sampled_launches_track_full_launches(
        blocks in 8u32..64,
        sample in 2u32..8,
    ) {
        let dev = DeviceSpec::tesla_c1060();
        let n = (blocks * 128) as usize;
        let run = |mode: SimMode| {
            let mut gm = GlobalMem::new();
            let buf = gm.alloc_f32(n);
            let k = Stream { buf, n: n as u32 };
            launch(&dev, &LaunchConfig::new(blocks, 128), &k, &mut gm, mode).expect("valid")
        };
        let full = run(SimMode::Full);
        let sampled = run(SimMode::SampleBlocks(sample));
        let rel = (sampled.stats.dram_bytes - full.stats.dram_bytes).abs()
            / full.stats.dram_bytes.max(1.0);
        prop_assert!(rel < 0.15, "dram bytes off by {rel}");
        let relt = (sampled.time.total_ms - full.time.total_ms).abs() / full.time.total_ms;
        prop_assert!(relt < 0.20, "time off by {relt}");
    }
}

// --- fast paths against their reference definitions -----------------------
//
// The simulator's memory models take one-pass shortcuts (sort-and-sweep
// coalescing, a bank-occupancy bitset, run-wise lane loops, register-held
// LRU victims). Each must agree exactly with the direct definition it
// replaces; the references below are those definitions, written for
// clarity rather than speed.

/// CC 1.3 coalescing by definition: for every distinct 128-byte segment
/// (ascending), rescan the half-warp for its lowest and highest access.
fn coalesce_reference(addrs: &[u64]) -> Vec<Transaction> {
    let mut segs: Vec<u64> = addrs.iter().map(|a| a & !127).collect();
    segs.sort_unstable();
    segs.dedup();
    segs.iter()
        .map(|&seg| {
            let inside = || addrs.iter().filter(move |&&a| a & !127 == seg);
            let lo = inside().map(|&a| a - seg).min().unwrap();
            let hi = inside().map(|&a| a - seg + 3).max().unwrap();
            if lo / 32 == hi / 32 {
                Transaction { base: seg + lo / 32 * 32, bytes: 32 }
            } else if lo / 64 == hi / 64 {
                Transaction { base: seg + lo / 64 * 64, bytes: 64 }
            } else {
                Transaction { base: seg, bytes: 128 }
            }
        })
        .collect()
}

/// Bank-conflict degree by definition: the most distinct words in any
/// one bank.
fn bank_degree_reference(words: &[u32], banks: usize) -> u32 {
    let mut distinct = words.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    (0..banks)
        .map(|b| distinct.iter().filter(|&&w| w as usize % banks == b).count() as u32)
        .max()
        .unwrap_or(0)
}

/// A half-warp's byte addresses in one of several shapes: scattered,
/// duplicate-heavy, broadcast, ascending strided, or reversed.
fn half_warp(shape: u32, base: u64, stride: u64, picks: &[u64]) -> Vec<u64> {
    let word = |k: u64| 4 * (base + k);
    match shape {
        0 => picks.iter().map(|&p| word(p * 37 % 4096)).collect(),
        1 => picks.iter().map(|&p| word(p % 3 * stride)).collect(),
        2 => picks.iter().map(|_| word(0)).collect(),
        3 => (0..picks.len() as u64).map(|i| word(i * stride)).collect(),
        _ => (0..picks.len() as u64).rev().map(|i| word(i * stride)).collect(),
    }
}

/// A mask of `len` lanes built from alternating run lengths, optionally
/// XOR-ed with noise so single-lane runs and gaps occur too.
fn mask_from_runs(len: usize, first_on: bool, runs: &[usize], noise: u64) -> Mask {
    let mut bits = vec![false; len];
    let (mut pos, mut on) = (0, first_on);
    for &r in runs.iter().cycle().take(4 * len) {
        if pos >= len {
            break;
        }
        let end = (pos + r).min(len);
        bits[pos..end].fill(on);
        (pos, on) = (end, !on);
    }
    let mut x = noise;
    Mask::from_fn(len, |i| {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        bits[i] ^ (noise & 1 == 1 && x >> 60 == 0)
    })
}

/// Set-associative LRU by definition: each set keeps its lines in
/// recency order and evicts the oldest once `ways` are resident.
struct LruReference {
    line_bytes: u64,
    ways: usize,
    sets: Vec<Vec<u64>>,
}

impl LruReference {
    fn new(capacity: u64, line_bytes: u64, ways: usize) -> Self {
        let lines = (capacity / line_bytes) as usize;
        let sets = (lines / ways).max(usize::from(lines > 0));
        LruReference { line_bytes, ways, sets: vec![Vec::new(); sets] }
    }

    fn access(&mut self, addr: u64) -> bool {
        if self.sets.is_empty() {
            return false;
        }
        let line = addr / self.line_bytes;
        let n = self.sets.len();
        let set = &mut self.sets[line as usize % n];
        let hit = set.iter().position(|&l| l == line).map(|i| set.remove(i)).is_some();
        if !hit && set.len() == self.ways {
            set.remove(0);
        }
        set.push(line);
        hit
    }
}

/// Shared loads through a block with a random active mask and random
/// per-lane word indices: the charged conflicts must equal the reference
/// degree summed over the device's conflict groups.
struct SharedGather {
    active: Vec<bool>,
    idx: Vec<u32>,
}

impl Kernel for SharedGather {
    fn name(&self) -> &'static str {
        "shared_gather"
    }
    fn run_block(&self, ctx: &mut BlockCtx, gm: &mut GlobalMem) {
        let sh = ctx.shared_alloc_u32(256);
        let idx = ctx.reg_from_fn_u32(|l| self.idx[l]);
        let cond = Mask::from_fn(self.active.len(), |l| self.active[l]);
        ctx.with_mask(gm, &cond, |ctx, _| {
            let _ = ctx.sh_ld_u32(sh, &idx);
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn sweep_coalescer_matches_the_rescan_definition(
        shape in 0u32..5,
        base in 0u64..5000,
        stride in 1u64..80,
        picks in prop::collection::vec(0u64..4096, 0..17),
    ) {
        let addrs = half_warp(shape, base, stride, &picks);
        prop_assert_eq!(coalesce_cc13_half_warp(&addrs), coalesce_reference(&addrs));
    }

    #[test]
    fn bank_bitset_degree_matches_the_distinct_count(
        fermi in any::<bool>(),
        span in 1u32..200,
        raw in prop::collection::vec(0u32..100_000, 0..33),
    ) {
        let dev = if fermi { DeviceSpec::tesla_m2050() } else { DeviceSpec::tesla_c1060() };
        let banks = dev.shared_banks as usize;
        let group = if fermi { 32 } else { 16 };
        let words: Vec<u32> = raw.iter().take(group).map(|w| w % span).collect();
        prop_assert_eq!(bank_conflict_degree(&words, banks), bank_degree_reference(&words, banks));
    }

    #[test]
    fn charged_bank_conflicts_match_the_per_group_definition(
        fermi in any::<bool>(),
        span in 1u32..256,
        active in any::<[bool; 128]>(),
        idx in any::<[u32; 128]>(),
    ) {
        let dev = if fermi { DeviceSpec::tesla_m2050() } else { DeviceSpec::tesla_c1060() };
        let banks = dev.shared_banks as usize;
        let group = if fermi { 32 } else { 16 };
        let idx: Vec<u32> = idx.iter().map(|i| i % span).collect();
        let k = SharedGather { active: active.to_vec(), idx: idx.clone() };
        let cfg = LaunchConfig::new(1, 128).shared(256 * 4);
        let r = launch(&dev, &cfg, &k, &mut GlobalMem::new(), SimMode::Full).expect("valid");
        let expect: u32 = (0..128 / group)
            .map(|g| {
                let words: Vec<u32> =
                    (g * group..(g + 1) * group).filter(|&l| active[l]).map(|l| idx[l]).collect();
                bank_degree_reference(&words, banks).saturating_sub(1)
            })
            .sum();
        prop_assert_eq!(r.stats.bank_conflict_extra, expect as f64);
    }

    #[test]
    fn mask_runs_flatten_to_the_active_lanes(
        len in 1usize..1025,
        first_on in any::<bool>(),
        runs in prop::collection::vec(1usize..90, 1..12),
        noise in any::<u64>(),
    ) {
        let m = mask_from_runs(len, first_on, &runs, noise);
        let flat: Vec<usize> = m.runs().flatten().collect();
        prop_assert_eq!(flat, m.lanes().collect::<Vec<_>>());
        // Runs are maximal: non-empty, and separated by at least one gap.
        let rs: Vec<_> = m.runs().collect();
        prop_assert!(rs.iter().all(|r| !r.is_empty()));
        prop_assert!(rs.windows(2).all(|w| w[0].end < w[1].start));
        prop_assert_eq!(m.active_warps(), (0..m.warp_count()).filter(|&w| m.warp_any(w)).count());
        // `filter` keeps exactly the active lanes that pass.
        let odd = m.filter(|l| l % 2 == 1);
        prop_assert_eq!(
            odd.lanes().collect::<Vec<_>>(),
            m.lanes().filter(|l| l % 2 == 1).collect::<Vec<_>>()
        );
    }

    #[test]
    fn cache_matches_the_recency_list_definition(
        sets in 1u64..12,
        ways in 1usize..9,
        line_pow in 5u32..8,
        stream in prop::collection::vec(0u64..64, 1..400),
    ) {
        let line = 1u64 << line_pow;
        let capacity = sets * ways as u64 * line;
        let mut fast = Cache::new(capacity, line, ways);
        let mut reference = LruReference::new(capacity, line, ways);
        for &l in &stream {
            let addr = l * line + l % line;
            prop_assert_eq!(fast.access(addr), reference.access(addr), "line {}", l);
        }
    }
}

//! Property tests for the SIMT simulator.

use std::sync::Mutex;

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

// --- broadcast accesses, word-wise compares and selects ---------------------
//
// A global access whose active lanes all use one index is charged in
// closed form, a block-wide broadcast load is one bounds check and a
// fill, comparisons build whole mask words and selects read the
// condition a word at a time. The references below are the per-lane
// definitions those shortcuts replace.

/// Block sizes with whole, partial and two-word warps.
const BLOCKS: [usize; 4] = [40, 96, 130, 256];

/// Words in the probed buffer (every generated index fits).
const PROBE_WORDS: usize = 8192;

/// One global access of `idx` (a load, or a store of `lane + 1`) under
/// the mask `active`, then full-block loads that show the L1 state the
/// access left behind: lane `l` of follow-up `(start, spread)` reads
/// `start + l % spread`.
struct GlobalProbe {
    buf: DevicePtr<u32>,
    active: Vec<bool>,
    idx: Vec<u32>,
    store: bool,
    follow: Vec<(u32, u32)>,
    loaded: Mutex<Vec<u32>>,
}

impl Kernel for GlobalProbe {
    fn name(&self) -> &'static str {
        "global_probe"
    }
    fn run_block(&self, ctx: &mut BlockCtx, gm: &mut GlobalMem) {
        let idx = ctx.reg_from_fn_u32(|l| self.idx[l]);
        let val = ctx.reg_from_fn_u32(|l| l as u32 + 1);
        let cond = Mask::from_fn(self.active.len(), |l| self.active[l]);
        ctx.with_mask(gm, &cond, |ctx, gm| {
            if self.store {
                ctx.st_global_u32(gm, self.buf, &idx, &val);
            } else {
                let v = ctx.ld_global_u32(gm, self.buf, &idx);
                *self.loaded.lock().unwrap() = v.as_slice().to_vec();
            }
        });
        for &(start, spread) in &self.follow {
            let f = ctx.reg_from_fn_u32(|l| start + l as u32 % spread);
            let _ = ctx.ld_global_u32(gm, self.buf, &f);
        }
    }
}

/// Charge `warps` warp-instructions of a base-cost op to SM 0.
fn charge_reference(dev: &DeviceSpec, s: &mut KernelStats, warps: usize) {
    s.warp_instructions += warps as f64;
    s.issue_cycles_per_sm[0] += (warps * dev.issue_cycles_per_warp as usize) as f64;
}

/// One global access by definition: for each warp with active lanes,
/// coalesce its half-warps (CC 1.3) or walk its distinct lines through
/// the L1 (CC 2.0); a load of one word by 16 or more lanes of a warp
/// pays `broadcast_camping`. `lanes` are `(lane, index)` in lane order.
fn access_reference(
    dev: &DeviceSpec,
    l1: &mut Cache,
    s: &mut KernelStats,
    lanes: &[(usize, u32)],
    store: bool,
) {
    // The probe buffer is the first in a fresh arena, based at 256.
    let addr = |i: u32| 256 + 4 * i as u64;
    let fermi = dev.compute_capability.is_fermi();
    let warps: Vec<usize> = {
        let mut w: Vec<usize> = lanes.iter().map(|&(l, _)| l / 32).collect();
        w.dedup();
        w
    };
    charge_reference(dev, s, warps.len());
    s.mem_warp_instructions += warps.len() as f64;
    for w in warps {
        let warp: Vec<(usize, u64)> =
            lanes.iter().filter(|&&(l, _)| l / 32 == w).map(|&(l, i)| (l, addr(i))).collect();
        let addrs: Vec<u64> = warp.iter().map(|&(_, a)| a).collect();
        let camping = if !store && addrs.len() >= 16 && addrs.iter().all(|&a| a == addrs[0]) {
            dev.broadcast_camping
        } else {
            1.0
        };
        let mut count = |bytes: f64| {
            s.dram_bytes += bytes * camping;
            if store {
                s.st_transactions += 1.0;
            } else {
                s.ld_transactions += 1.0;
            }
        };
        if fermi {
            for line in lines_cc20(&addrs) {
                if !store && l1.access(line) {
                    s.l1_hits += 1.0;
                } else {
                    if !store {
                        s.l1_misses += 1.0;
                    }
                    count(128.0);
                }
            }
        } else {
            for first_half in [true, false] {
                let part: Vec<u64> = warp
                    .iter()
                    .filter(|&&(l, _)| (l % 32 < 16) == first_half)
                    .map(|x| x.1)
                    .collect();
                for t in coalesce_cc13_half_warp(&part) {
                    count(t.bytes as f64);
                }
            }
        }
    }
}

/// Probe indices of one of several shapes around index `u`: a pure
/// broadcast, a broadcast with one differing lane, a different
/// broadcast per warp, or scattered.
fn probe_indices(
    shape: u32,
    block: usize,
    u: u32,
    delta: u32,
    odd: usize,
    raw: &[u32],
) -> Vec<u32> {
    (0..block)
        .map(|l| match shape {
            0 => u,
            1 if l == odd % block => u + delta,
            1 => u,
            2 => u + (l / 32) as u32 * (delta % 3),
            _ => raw[l] % 4096,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    #[test]
    fn broadcast_accesses_charge_exactly_what_the_per_lane_model_does(
        block_pick in 0usize..4,
        fermi in any::<bool>(),
        store in any::<bool>(),
        density in 0u32..33,
        active_raw in any::<[u32; 256]>(),
        shape in 0u32..4,
        u in 0u32..3000,
        delta in 1u32..300,
        odd in any::<usize>(),
        raw in any::<[u32; 256]>(),
        follow in prop::collection::vec((0u32..3200, 1u32..70), 0..4),
    ) {
        let dev = if fermi { DeviceSpec::tesla_m2050() } else { DeviceSpec::tesla_c1060() };
        let block = BLOCKS[block_pick];
        // `density` of 32 lanes active on average: low densities leave
        // warps with fewer than 16 active lanes.
        let active: Vec<bool> = (0..block).map(|l| active_raw[l] % 32 < density).collect();
        let idx = probe_indices(shape, block, u, delta, odd, &raw);
        let lanes: Vec<(usize, u32)> = (0..block).filter(|&l| active[l]).map(|l| (l, idx[l])).collect();
        let init: Vec<u32> = (0..PROBE_WORDS as u32).map(|i| i.wrapping_mul(2654435761)).collect();

        // Counters after the access and each prefix of the follow-up
        // stream: equal totals at every prefix pin the L1 hit/miss
        // sequence, not just its sum.
        let mut want = KernelStats::for_sms(dev.sm_count as usize);
        let mut l1 = Cache::new(if dev.has_l1 { dev.l1_bytes as u64 } else { 0 }, 128, 8);
        charge_reference(&dev, &mut want, 2 * block.div_ceil(32));
        access_reference(&dev, &mut l1, &mut want, &lanes, store);
        for k in 0..=follow.len() {
            if k > 0 {
                let (start, spread) = follow[k - 1];
                let f: Vec<(usize, u32)> = (0..block).map(|l| (l, start + l as u32 % spread)).collect();
                charge_reference(&dev, &mut want, block.div_ceil(32));
                access_reference(&dev, &mut l1, &mut want, &f, false);
            }
            let mut gm = GlobalMem::new();
            let buf = gm.alloc_u32(PROBE_WORDS);
            gm.u32_mut(buf).copy_from_slice(&init);
            let probe = GlobalProbe {
                buf,
                active: active.clone(),
                idx: idx.clone(),
                store,
                follow: follow[..k].to_vec(),
                loaded: Mutex::new(vec![0; block]),
            };
            let r = launch(&dev, &LaunchConfig::new(1, block as u32), &probe, &mut gm, SimMode::Full)
                .expect("valid launch");
            prop_assert_eq!(&r.stats, &want, "after {} follow-up loads", k);

            // Functional results: loads read memory on active lanes (0
            // elsewhere); stores land in lane order.
            let mut mem = init.clone();
            let mut loaded = vec![0u32; block];
            for &(l, i) in &lanes {
                if store {
                    mem[i as usize] = l as u32 + 1;
                } else {
                    loaded[l] = init[i as usize];
                }
            }
            prop_assert_eq!(gm.u32(buf), &mem[..]);
            prop_assert_eq!(&*probe.loaded.lock().unwrap(), &loaded);
        }
    }
}

/// Every comparison and both selects under the mask `active`, with the
/// results captured for the per-lane references.
struct CmpProbe {
    fa: DevicePtr<f32>,
    fb: DevicePtr<f32>,
    active: Vec<bool>,
    ua: Vec<u32>,
    ub: Vec<u32>,
    cond: Vec<bool>,
    out: Mutex<Option<CmpOut>>,
}

struct CmpOut {
    /// `flt, fle, fge, fgt, ult, ule, ueq, une`, lane by lane.
    masks: Vec<Vec<bool>>,
    sel_f32: Vec<f32>,
    sel_u32: Vec<u32>,
}

impl Kernel for CmpProbe {
    fn name(&self) -> &'static str {
        "cmp_probe"
    }
    fn run_block(&self, ctx: &mut BlockCtx, gm: &mut GlobalMem) {
        let tid = ctx.thread_idx();
        let fa = ctx.ld_global_f32(gm, self.fa, &tid);
        let fb = ctx.ld_global_f32(gm, self.fb, &tid);
        let ua = ctx.reg_from_fn_u32(|l| self.ua[l]);
        let ub = ctx.reg_from_fn_u32(|l| self.ub[l]);
        let cond = Mask::from_fn(self.cond.len(), |l| self.cond[l]);
        let active = Mask::from_fn(self.active.len(), |l| self.active[l]);
        ctx.with_mask(gm, &active, |ctx, _| {
            let ms = [
                ctx.flt(&fa, &fb),
                ctx.fle(&fa, &fb),
                ctx.fge(&fa, &fb),
                ctx.fgt(&fa, &fb),
                ctx.ult(&ua, &ub),
                ctx.ule(&ua, &ub),
                ctx.ueq(&ua, &ub),
                ctx.une(&ua, &ub),
            ];
            let sel_f32 = ctx.select_f32(&cond, &fa, &fb).as_slice().to_vec();
            let sel_u32 = ctx.select_u32(&cond, &ua, &ub).as_slice().to_vec();
            let masks = ms.iter().map(|m| (0..m.len()).map(|l| m.get(l)).collect()).collect();
            *self.out.lock().unwrap() = Some(CmpOut { masks, sel_f32, sel_u32 });
        });
    }
}

/// An f32 operand: NaN, ±0.0, ±inf, a small integer (so equal pairs
/// are common) or arbitrary bits.
fn f32_operand(raw: u32) -> f32 {
    match raw % 8 {
        0 => f32::NAN,
        1 => -0.0,
        2 => 0.0,
        3 => f32::INFINITY,
        4 => f32::NEG_INFINITY,
        5 | 6 => (raw >> 3) as f32 % 4.0,
        _ => f32::from_bits(raw),
    }
}

/// A u32 operand: 0, `u32::MAX`, a small integer or arbitrary bits.
fn u32_operand(raw: u32) -> u32 {
    match raw % 6 {
        0 => 0,
        1 => u32::MAX,
        2 | 3 => (raw >> 3) % 4,
        _ => raw,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn word_wise_compares_and_selects_match_the_per_lane_definitions(
        block_pick in 0usize..4,
        density in 0u32..33,
        active_raw in any::<[u32; 256]>(),
        raw_a in any::<[u32; 256]>(),
        raw_b in any::<[u32; 256]>(),
        cond in any::<[bool; 256]>(),
    ) {
        let dev = DeviceSpec::tesla_c1060();
        let block = BLOCKS[block_pick];
        let active: Vec<bool> = (0..block).map(|l| active_raw[l] % 32 < density).collect();
        let fa: Vec<f32> = raw_a[..block].iter().map(|&r| f32_operand(r)).collect();
        let fb: Vec<f32> = raw_b[..block].iter().map(|&r| f32_operand(r)).collect();
        let ua: Vec<u32> = raw_a[..block].iter().map(|&r| u32_operand(r.rotate_left(7))).collect();
        let ub: Vec<u32> = raw_b[..block].iter().map(|&r| u32_operand(r.rotate_left(7))).collect();
        let mut gm = GlobalMem::new();
        let (pa, pb) = (gm.alloc_f32(block), gm.alloc_f32(block));
        gm.f32_mut(pa).copy_from_slice(&fa);
        gm.f32_mut(pb).copy_from_slice(&fb);
        let probe = CmpProbe {
            fa: pa,
            fb: pb,
            active: active.clone(),
            ua: ua.clone(),
            ub: ub.clone(),
            cond: cond[..block].to_vec(),
            out: Mutex::new(None),
        };
        launch(&dev, &LaunchConfig::new(1, block as u32), &probe, &mut gm, SimMode::Full)
            .expect("valid launch");
        let Some(out) = probe.out.into_inner().unwrap() else {
            prop_assert!(!active.contains(&true), "the probe ran under a non-empty mask");
            return Ok(());
        };
        let fcmp: [fn(f32, f32) -> bool; 4] = [|x, y| x < y, |x, y| x <= y, |x, y| x >= y, |x, y| x > y];
        let ucmp: [fn(u32, u32) -> bool; 4] = [|x, y| x < y, |x, y| x <= y, |x, y| x == y, |x, y| x != y];
        for (c, f) in fcmp.iter().enumerate() {
            let want: Vec<bool> = (0..block).map(|l| active[l] && f(fa[l], fb[l])).collect();
            prop_assert_eq!(&out.masks[c], &want, "f32 comparison {}", c);
        }
        for (c, f) in ucmp.iter().enumerate() {
            let want: Vec<bool> = (0..block).map(|l| active[l] && f(ua[l], ub[l])).collect();
            prop_assert_eq!(&out.masks[4 + c], &want, "u32 comparison {}", c);
        }
        let pick = |l: usize, a: u32, b: u32| if !active[l] { 0 } else if cond[l] { a } else { b };
        let want_f: Vec<u32> = (0..block).map(|l| pick(l, fa[l].to_bits(), fb[l].to_bits())).collect();
        let got_f: Vec<u32> = out.sel_f32.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(got_f, want_f);
        let want_u: Vec<u32> = (0..block).map(|l| pick(l, ua[l], ub[l])).collect();
        prop_assert_eq!(out.sel_u32, want_u);
    }
}

/// Loads `idx` (one index per lane) from a 4-word buffer.
struct OobLoad {
    buf: DevicePtr<u32>,
    idx: Vec<u32>,
}

impl Kernel for OobLoad {
    fn name(&self) -> &'static str {
        "oob_load"
    }
    fn run_block(&self, ctx: &mut BlockCtx, gm: &mut GlobalMem) {
        let idx = ctx.reg_from_fn_u32(|l| self.idx[l]);
        let _ = ctx.ld_global_u32(gm, self.buf, &idx);
    }
}

fn oob_load(idx: Vec<u32>) {
    let mut gm = GlobalMem::new();
    let buf = gm.alloc_u32(4);
    let k = OobLoad { buf, idx };
    let _ =
        launch(&DeviceSpec::tesla_c1060(), &LaunchConfig::new(1, 64), &k, &mut gm, SimMode::Full);
}

#[test]
#[should_panic(expected = "device OOB load: u32 buffer #0 has 4 elements, index 9")]
fn broadcast_load_past_the_end_panics_with_the_per_lane_message() {
    oob_load(vec![9; 64]);
}

#[test]
#[should_panic(expected = "device OOB load: u32 buffer #0 has 4 elements, index 7")]
fn per_lane_load_past_the_end_names_the_first_bad_lane() {
    oob_load((0..64).map(|l| if l < 5 { 1 } else { l + 2 }).collect());
}

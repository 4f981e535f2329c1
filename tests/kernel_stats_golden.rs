//! Full-counter golden table for every simulated kernel family.
//!
//! Modeled milliseconds alone can hide a drift in one counter that
//! another happens to absorb (a `dram_bytes` change behind a
//! compute-bound launch, a `bank_conflict_extra` change behind a
//! memory-bound one). This suite pins **every** `KernelStats` field —
//! `issue_cycles_per_sm` included — as raw `f64` bits, plus the modeled
//! milliseconds and a digest of the device memory each scenario leaves
//! behind, for:
//!
//! * all eight Table II construction rows,
//! * all five Tables III/IV pheromone rows,
//! * the device 2-opt families (per-ant and batched) and Or-opt,
//! * the GPU Ant Colony System's tour and global-update kernels,
//!
//! on both simulated devices at n = 48 and n = 300 (two data-parallel
//! tiles; on the C1060 the task rows' shared tabu falls back to the
//! bit-packed layout). Any change to the simulator's cost models or lane
//! semantics that is meant to be exact must leave this table untouched.
//!
//! The tables live in `tests/golden/`. The n = 48 table runs in the
//! tier-1 suite; the n = 300 one is `#[ignore]`d there and runs in
//! release in CI. After an intended model change, rewrite both with the
//! `rewrite_golden_tables` test (see its doc) and review the diff.

use std::fmt::Write as _;

use aco_gpu::core::gpu::acs::{AcsGlobalUpdateKernel, AcsTourKernel};
use aco_gpu::core::gpu::choice::ChoiceKernel;
use aco_gpu::core::gpu::{
    run_pheromone_threads, run_tour_threads, ColonyBuffers, PheromoneStrategy, TourStrategy,
};
use aco_gpu::core::AcoParams;
use aco_gpu::localsearch::{
    run_or_opt, run_two_opt, run_two_opt_all, OrOptDev, TwoOptBatchDev, TwoOptDev,
};
use aco_gpu::simt::prelude::*;
use aco_gpu::simt::DeviceSpec;
use aco_gpu::tsp;

fn devices() -> [(&'static str, DeviceSpec); 2] {
    [("c1060", DeviceSpec::tesla_c1060()), ("m2050", DeviceSpec::tesla_m2050())]
}

fn instance(n: usize) -> tsp::TspInstance {
    tsp::uniform_random("golden", n, 1000.0, 17 + n as u64)
}

fn colony(n: usize, ants: usize) -> (GlobalMem, ColonyBuffers) {
    let inst = instance(n);
    let mut gm = GlobalMem::new();
    let bufs = ColonyBuffers::allocate(&mut gm, &inst, &AcoParams::default().nn(10).ants(ants));
    (gm, bufs)
}

/// A colony whose tour rows hold real constructed tours (the input of
/// the pheromone and local-search families).
fn constructed(dev: &DeviceSpec, n: usize, ants: usize) -> (GlobalMem, ColonyBuffers) {
    let (mut gm, bufs) = colony(n, ants);
    run_tour_threads(dev, &mut gm, bufs, TourStrategy::NNList, 1.0, 2.0, 5, 0, SimMode::Full, 1)
        .unwrap();
    (gm, bufs)
}

/// FNV-1a over the colony buffers a kernel family may write.
fn memory_digest(gm: &GlobalMem, bufs: ColonyBuffers) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |w: u32| {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    gm.u32(bufs.tours).iter().for_each(|&w| eat(w));
    gm.f32(bufs.lengths).iter().for_each(|v| eat(v.to_bits()));
    gm.f32(bufs.tau).iter().for_each(|v| eat(v.to_bits()));
    gm.f32(bufs.choice).iter().for_each(|v| eat(v.to_bits()));
    h
}

/// Render one scenario: a header line, then one line per counter with
/// its bits in hex and its value for the reader.
fn render(out: &mut String, name: &str, ms: f64, extra: &str, stats: &KernelStats, digest: u64) {
    let _ = writeln!(out, "[{name}]{extra}");
    let _ = writeln!(out, "modeled_ms {:016x} {ms:e}", ms.to_bits());
    let fields: [(&str, f64); 17] = [
        ("warp_instructions", stats.warp_instructions),
        ("dram_bytes", stats.dram_bytes),
        ("ld_transactions", stats.ld_transactions),
        ("st_transactions", stats.st_transactions),
        ("mem_warp_instructions", stats.mem_warp_instructions),
        ("shared_accesses", stats.shared_accesses),
        ("bank_conflict_extra", stats.bank_conflict_extra),
        ("atomic_ops", stats.atomic_ops),
        ("atomic_conflicts", stats.atomic_conflicts),
        ("divergent_branches", stats.divergent_branches),
        ("barriers", stats.barriers),
        ("tex_hits", stats.tex_hits),
        ("tex_misses", stats.tex_misses),
        ("l1_hits", stats.l1_hits),
        ("l1_misses", stats.l1_misses),
        ("rng_calls", stats.rng_calls),
        ("max_sm_cycles", stats.max_sm_cycles()),
    ];
    for (field, v) in fields {
        let _ = writeln!(out, "{field} {:016x} {v}", v.to_bits());
    }
    let per_sm: Vec<String> =
        stats.issue_cycles_per_sm.iter().map(|v| format!("{:016x}", v.to_bits())).collect();
    let _ = writeln!(out, "issue_cycles_per_sm {}", per_sm.join(","));
    let _ = writeln!(out, "memory_fnv {digest:016x}");
}

/// Every scenario of one size class, rendered in a fixed order.
fn table(n: usize, ants: usize) -> String {
    let mut out = String::new();
    for (dname, dev) in devices() {
        let tag = format!("{dname} n{n} m{ants}");
        for strategy in TourStrategy::ALL {
            let (mut gm, bufs) = colony(n, ants);
            let r =
                run_tour_threads(&dev, &mut gm, bufs, strategy, 1.0, 2.0, 11, 0, SimMode::Full, 1)
                    .unwrap();
            let choice_ms = r.choice_time.map_or(0.0, |t| t.total_ms);
            render(
                &mut out,
                &format!("{tag} tour {strategy:?}"),
                r.total_ms(),
                &format!(" choice_ms={:016x}", choice_ms.to_bits()),
                &r.stats,
                memory_digest(&gm, bufs),
            );
        }
        for strategy in PheromoneStrategy::ALL {
            let (mut gm, bufs) = constructed(&dev, n, ants);
            let r = run_pheromone_threads(&dev, &mut gm, bufs, strategy, 0.5, SimMode::Full, 1)
                .unwrap();
            render(
                &mut out,
                &format!("{tag} pheromone {strategy:?}"),
                r.time.total_ms,
                "",
                &r.stats,
                memory_digest(&gm, bufs),
            );
        }
        // The local-search families run back to back on one colony: the
        // per-ant 2-opt on ant 1, then the batched 2-opt over every ant,
        // then Or-opt over every (now 2-optimal) ant — which keeps the
        // Or-opt round count, and so the run time, small.
        let (mut gm, bufs) = constructed(&dev, n, ants);
        let per_ant = TwoOptDev::allocate(
            &mut gm,
            bufs.n,
            bufs.nn,
            bufs.stride,
            bufs.dist,
            bufs.tours,
            bufs.lengths,
            bufs.nn_list,
        );
        let r = run_two_opt(&dev, &mut gm, per_ant, 1, 1).unwrap();
        let extra = format!(" rounds={} moves={}", r.rounds, r.moves);
        let digest = memory_digest(&gm, bufs);
        render(&mut out, &format!("{tag} two_opt ant1"), r.ms, &extra, &r.stats, digest);
        let batched = TwoOptBatchDev::allocate(
            &mut gm,
            bufs.n,
            bufs.m,
            bufs.nn,
            bufs.stride,
            bufs.dist,
            bufs.tours,
            bufs.lengths,
            bufs.nn_list,
        );
        let r = run_two_opt_all(&dev, &mut gm, batched, 1).unwrap();
        let extra = format!(" rounds={} moves={}", r.rounds, r.moves);
        let digest = memory_digest(&gm, bufs);
        render(&mut out, &format!("{tag} two_opt_all"), r.ms, &extra, &r.stats, digest);
        let oropt = OrOptDev::allocate(
            &mut gm,
            bufs.n,
            bufs.m,
            bufs.nn,
            bufs.stride,
            bufs.dist,
            bufs.tours,
            bufs.lengths,
            bufs.nn_list,
        );
        let r = run_or_opt(&dev, &mut gm, oropt, 0, bufs.m, 1).unwrap();
        let extra = format!(" rounds={} moves={}", r.rounds, r.moves);
        let digest = memory_digest(&gm, bufs);
        render(&mut out, &format!("{tag} or_opt all"), r.ms, &extra, &r.stats, digest);
        acs(&mut out, &tag, &dev, n, ants);
    }
    out
}

/// One launch of each GPU ACS kernel, set up as the ACS colony does it:
/// `tau = tau0` everywhere, `choice = eta^beta`, then the tour kernel,
/// then the global update on the best ant it built.
fn acs(out: &mut String, tag: &str, dev: &DeviceSpec, n: usize, ants: usize) {
    let (mut gm, bufs) = colony(n, ants);
    let inst = instance(n);
    let c_nn = tsp::nearest_neighbor_tour(inst.matrix(), 0).length(inst.matrix());
    let tau0 = 1.0 / (n as f32 * c_nn as f32);
    gm.f32_mut(bufs.tau).fill(tau0);
    let eta = ChoiceKernel { bufs, alpha: 0.0, beta: 2.0 };
    launch(dev, &eta.config(), &eta, &mut gm, SimMode::Full).unwrap();
    bufs.clear_visited(&mut gm);
    let tk = AcsTourKernel { bufs, q0: 0.9, xi: 0.1, tau0, seed: 5, iteration: 3 };
    let r = launch_threads(dev, &tk.config(), &tk, &mut gm, SimMode::Full, 1).unwrap();
    let digest = memory_digest(&gm, bufs);
    render(out, &format!("{tag} acs_tour"), r.time.total_ms, "", &r.stats, digest);
    let lens = bufs.read_lengths(&gm);
    let best_ant = (0..lens.len()).min_by(|&a, &b| lens[a].total_cmp(&lens[b])).unwrap();
    let uk = AcsGlobalUpdateKernel {
        bufs,
        best_ant: best_ant as u32,
        best_len: lens[best_ant],
        rho: 0.1,
    };
    let r = launch_threads(dev, &uk.config(), &uk, &mut gm, SimMode::Full, 1).unwrap();
    let extra = format!(" best_ant={best_ant}");
    let digest = memory_digest(&gm, bufs);
    render(out, &format!("{tag} acs_global_update"), r.time.total_ms, &extra, &r.stats, digest);
}

fn golden_path(file: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(file)
}

/// Compare a rendered table with its committed copy, reporting every
/// differing line under the scenario it belongs to.
fn check(file: &str, actual: &str) {
    let expected = std::fs::read_to_string(golden_path(file)).expect("golden table is committed");
    if actual == expected {
        return;
    }
    let mut report = String::new();
    let mut scenario = "";
    let (mut exp_lines, mut act_lines) = (expected.lines(), actual.lines());
    loop {
        match (exp_lines.next(), act_lines.next()) {
            (None, None) => break,
            (e, a) => {
                if let Some(h) = a.filter(|l| l.starts_with('[')) {
                    scenario = h;
                }
                if e != a {
                    let _ = writeln!(
                        report,
                        "{scenario}\n  golden: {}\n  actual: {}",
                        e.unwrap_or("<missing>"),
                        a.unwrap_or("<missing>")
                    );
                }
            }
        }
    }
    panic!("kernel counters drifted from tests/golden/{file}:\n{report}");
}

const SMALL: (usize, usize, &str) = (48, 40, "kernel_stats_n48.txt");
/// Few ants keep the large class to seconds in release while still
/// covering two data-parallel tiles and the C1060's bit-packed shared
/// tabu.
const LARGE: (usize, usize, &str) = (300, 6, "kernel_stats_n300.txt");

#[test]
fn n48_kernel_counters_match_the_golden_table() {
    let (n, ants, file) = SMALL;
    check(file, &table(n, ants));
}

/// Tens of seconds even in release; CI runs it there
/// (`cargo test --release --test kernel_stats_golden -- --ignored`).
#[test]
#[ignore]
fn n300_kernel_counters_match_the_golden_table() {
    let (n, ants, file) = LARGE;
    check(file, &table(n, ants));
}

/// Rewrites both committed tables from the current simulator. Run only
/// after an intended model change, and review the diff:
/// `cargo test --release --test kernel_stats_golden -- --ignored --exact rewrite_golden_tables`.
#[test]
#[ignore]
fn rewrite_golden_tables() {
    for (n, ants, file) in [SMALL, LARGE] {
        let path = golden_path(file);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, table(n, ants)).unwrap();
    }
}

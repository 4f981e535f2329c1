//! SIMT-interpreter micro-benchmark → `BENCH_interp.json`.
//!
//! ```text
//! interp_bench [--label S] [--append] [--reps R] [--out FILE]
//! interp_bench --check FILE [--tolerance T] [--reps R]
//! ```
//!
//! `--check` is the CI regression gate mirroring `engine_bench --check`:
//! it re-runs every op of the artifact's **last** history entry and fails
//! (exit 1) if any op's allocs/op rose more than 0.5 above that entry
//! (the zero-alloc tripwire is absolute) or its ns/op rose more than
//! `--tolerance` (default 0.50 — wall time is advisory across machines;
//! allocation counts are the hard signal).
//!
//! Measures the per-operation cost of the `BlockCtx` primitives the
//! kernels are built from — wall nanoseconds *and allocator calls* per
//! op — on a fully active 256-lane C1060 block with unit-stride
//! addresses, plus rows for the shapes the colony kernels actually
//! issue: per-ant strided global loads on both devices, a task kernel's
//! partial mask (the first 48 of 128 lanes), a block-reduction
//! level's shared traffic, and the scatter-to-gather pheromone update's
//! step: a block-wide broadcast load on both devices and an integer
//! equality compare. The allocation column is the regression
//! tripwire for the pooled register file: every row must stay at (or
//! very near) zero allocations per op once the thread-local pools are
//! warm; a future change that reintroduces per-op `Vec` churn shows up
//! here immediately, long before it is visible in end-to-end numbers.
//!
//! The `launches` section measures allocator calls **per
//! `launch_threads` call** of a read-heavy kernel family at 1 and 4
//! exec threads — the tripwire for the COW shadow memory: forking a
//! shadow worker clones buffer *handles*, so allocs/launch must stay
//! flat however large the read-only inputs are. The `--check` gate
//! holds each family within the same ±0.5 slack as the per-op rows.
//!
//! The artifact keeps a history entry per PR, like `BENCH_engine.json`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use aco_bench::json::Json;
use aco_simt::prelude::*;

/// Counts every allocator call so the bench can report allocs/op.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates to `System` verbatim; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One micro-kernel: `reps` repetitions of a single primitive inside one
/// block (see [`op_shape`] for each row's device and block size).
struct OpKernel {
    op: &'static str,
    reps: u32,
    buf_f: DevicePtr<f32>,
    buf_u: DevicePtr<u32>,
}

impl Kernel for OpKernel {
    fn name(&self) -> &'static str {
        self.op
    }

    fn run_block(&self, ctx: &mut BlockCtx, gm: &mut GlobalMem) {
        let a = ctx.thread_idx();
        let af = ctx.u2f(&a);
        let bf = ctx.splat_f32(1.5);
        let idx = a.clone();
        match self.op {
            "fmul" => {
                for _ in 0..self.reps {
                    let _ = ctx.fmul(&af, &bf);
                }
            }
            "fma" => {
                for _ in 0..self.reps {
                    let _ = ctx.fma(&af, &bf, &af);
                }
            }
            "fdiv_sfu" => {
                for _ in 0..self.reps {
                    let _ = ctx.fdiv(&af, &bf);
                }
            }
            "cmp_select" => {
                for _ in 0..self.reps {
                    let m = ctx.flt(&af, &bf);
                    let _ = ctx.select_f32(&m, &af, &bf);
                }
            }
            "if_else" => {
                let m = ctx.flt(&af, &bf);
                for _ in 0..self.reps {
                    ctx.if_else(
                        gm,
                        &m,
                        |ctx, _| ctx.charge(Op::IAlu, 1),
                        |ctx, _| ctx.charge(Op::IAlu, 1),
                    );
                }
            }
            "global_ld" => {
                for _ in 0..self.reps {
                    let _ = ctx.ld_global_f32(gm, self.buf_f, &idx);
                }
            }
            "global_ld_strided" | "global_ld_strided_m2050" => {
                // One tour row per lane, as in the task kernels: every
                // lane touches its own segment / L1 line.
                let stride = ctx.splat_u32(STRIDE);
                let rows = ctx.imul(&a, &stride);
                for _ in 0..self.reps {
                    let _ = ctx.ld_global_f32(gm, self.buf_f, &rows);
                }
            }
            "global_ld_broadcast" | "global_ld_broadcast_m2050" => {
                // Every lane reads one tour word, as each thread of the
                // scatter-to-gather update does for every tour step.
                let word = ctx.splat_u32(STRIDE);
                for _ in 0..self.reps {
                    let _ = ctx.ld_global_u32(gm, self.buf_u, &word);
                }
            }
            "ueq" => {
                let eight = ctx.splat_u32(8);
                let b = ctx.imod(&a, &eight);
                for _ in 0..self.reps {
                    let _ = ctx.ueq(&a, &b);
                }
            }
            "fmul_48of128" | "cmp_select_48of128" => {
                // A task kernel's mask: 48 ants in a 128-thread block.
                let ants = ctx.splat_u32(48);
                let live = ctx.ult(&a, &ants);
                let select = self.op == "cmp_select_48of128";
                ctx.with_mask(gm, &live, |ctx, _| {
                    for _ in 0..self.reps {
                        if select {
                            let m = ctx.flt(&af, &bf);
                            let _ = ctx.select_f32(&m, &af, &bf);
                        } else {
                            let _ = ctx.fmul(&af, &bf);
                        }
                    }
                });
            }
            "shared_reduce" => {
                // One level of a block argmax per rep: lanes below `s`
                // combine their word with the one `s` above, `s` halving
                // from 128 to 1 as in the data-parallel construction.
                let sh = ctx.shared_alloc_f32(256);
                ctx.sh_st_f32(sh, &idx, &af);
                for rep in 0..self.reps {
                    let s = ctx.splat_u32(128 >> (rep % 8));
                    let lower = ctx.ult(&a, &s);
                    ctx.with_mask(gm, &lower, |ctx, _| {
                        let other = ctx.iadd(&a, &s);
                        let vo = ctx.sh_ld_f32(sh, &other);
                        let vm = ctx.sh_ld_f32(sh, &a);
                        let best = ctx.fmax(&vo, &vm);
                        ctx.sh_st_f32(sh, &a, &best);
                    });
                }
            }
            "global_st" => {
                for _ in 0..self.reps {
                    ctx.st_global_f32(gm, self.buf_f, &idx, &af);
                }
            }
            "tex_ld" => {
                for _ in 0..self.reps {
                    let _ = ctx.ld_tex_f32(gm, self.buf_f, &idx);
                }
            }
            "shared_ld_st" => {
                let sh = ctx.shared_alloc_f32(256);
                for _ in 0..self.reps {
                    ctx.sh_st_f32(sh, &idx, &af);
                    let _ = ctx.sh_ld_f32(sh, &idx);
                }
            }
            "atomic_add" => {
                let eight = ctx.splat_u32(8);
                let target = ctx.imod(&a, &eight);
                for _ in 0..self.reps {
                    ctx.atomic_add_f32(gm, self.buf_f, &target, &bf);
                }
            }
            "lcg_rng" => {
                let mut state = ctx.reg_from_fn_u32(|l| l as u32 + 1);
                for _ in 0..self.reps {
                    let _ = ctx.lcg_next_f32(&mut state);
                }
            }
            "roulette_loop" => {
                // A loop_while whose lanes retire progressively — the
                // divergence pattern of the proportional roulette.
                for _ in 0..self.reps / 16 {
                    let mut trips = ctx.splat_u32(0);
                    let one = ctx.splat_u32(1);
                    let lanes = ctx.thread_idx();
                    let sixteen = ctx.splat_u32(16);
                    let cap = ctx.imod(&lanes, &sixteen);
                    ctx.loop_while(gm, |ctx, _| {
                        let next = ctx.iadd(&trips, &one);
                        ctx.assign_u32(&mut trips, &next);
                        ctx.ult(&trips, &cap)
                    });
                }
            }
            other => unreachable!("unknown op {other}"),
        }
    }
}

/// The COW-shadow workload: each block reads a large read-only buffer
/// (texture path) and writes one word per lane into a small output — the
/// allocation shape of the batched-LS hot path, where distance/NN-list
/// inputs dwarf the per-launch writes. Pre-COW, `launch_threads` with
/// shadow workers deep-copied every buffer per group; with `Arc`-backed
/// copy-on-write buffers only the dirtied output materialises, so
/// allocs/launch stays flat as the big read-only input grows.
struct ShadowKernel {
    big: DevicePtr<f32>,
    out: DevicePtr<u32>,
}

impl Kernel for ShadowKernel {
    fn name(&self) -> &'static str {
        "cow_shadow"
    }

    fn run_block(&self, ctx: &mut BlockCtx, gm: &mut GlobalMem) {
        let tid = ctx.global_thread_idx();
        let _ = ctx.ld_tex_f32(gm, self.big, &tid);
        ctx.st_global_u32(gm, self.out, &tid, &tid);
    }
}

/// Allocator calls per `launch_threads` call of the [`ShadowKernel`]
/// family at a given exec-thread count (8 blocks over a 64 Ki-word
/// read-only input). `launches` is the counted sample size; the family
/// launch count itself is deterministic harness structure.
struct LaunchAllocResult {
    family: String,
    threads: usize,
    launches: u64,
    allocs_per_launch: f64,
}

fn run_launches(threads: usize) -> LaunchAllocResult {
    let dev = DeviceSpec::tesla_c1060();
    let mut gm = GlobalMem::new();
    let blocks = 8u32;
    let big = gm.alloc_f32(65_536);
    let out = gm.alloc_u32((blocks * 256) as usize);
    let k = ShadowKernel { big, out };
    let cfg = LaunchConfig::new(blocks, 256);
    // Warm-up launch: pools, caches, and the first shadow forks.
    launch_threads(&dev, &cfg, &k, &mut gm, SimMode::Full, threads).unwrap();
    let launches = 32u64;
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    for _ in 0..launches {
        launch_threads(&dev, &cfg, &k, &mut gm, SimMode::Full, threads).unwrap();
    }
    let allocs = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    LaunchAllocResult {
        family: format!("cow_shadow_t{threads}"),
        threads,
        launches,
        allocs_per_launch: allocs as f64 / launches as f64,
    }
}

/// Exec-thread counts the launch-allocation section measures: the
/// single-threaded reference and a forked-shadow run.
const LAUNCH_THREADS: [usize; 2] = [1, 4];

const OPS: [&str; 20] = [
    "fmul",
    "fma",
    "fdiv_sfu",
    "cmp_select",
    "if_else",
    "global_ld",
    "global_st",
    "tex_ld",
    "shared_ld_st",
    "atomic_add",
    "lcg_rng",
    "roulette_loop",
    "global_ld_strided",
    "global_ld_strided_m2050",
    "fmul_48of128",
    "cmp_select_48of128",
    "shared_reduce",
    "global_ld_broadcast",
    "global_ld_broadcast_m2050",
    "ueq",
];

/// Word stride between lanes of the strided-load rows: a padded tour row
/// (`n + 1` rounded up past a 128-byte segment), so no two lanes share a
/// segment or an L1 line.
const STRIDE: u32 = 33;

/// Device and block size of a row: `_m2050` rows run on the Tesla M2050
/// (L1-cached loads), `_48of128` rows in a 128-thread block; every other
/// row in a 256-thread C1060 block.
fn op_shape(op: &str) -> (DeviceSpec, u32) {
    let dev =
        if op.ends_with("_m2050") { DeviceSpec::tesla_m2050() } else { DeviceSpec::tesla_c1060() };
    (dev, if op.ends_with("_48of128") { 128 } else { 256 })
}

struct OpResult {
    name: &'static str,
    ns_per_op: f64,
    allocs_per_op: f64,
}

/// Allowed absolute rise in allocs/op before the gate fails: the pooled
/// interpreter holds every row at ~0, so any systematic per-op churn
/// clears this slack immediately while counter jitter does not.
const ALLOC_SLACK: f64 = 0.5;

/// `--check`: re-run the last committed entry's ops and compare. Exit 1
/// on regression beyond the tolerances.
fn check(path: &std::path::Path, tolerance: f64, reps: u32) -> ! {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("check: could not read {}: {e}", path.display());
        std::process::exit(2);
    });
    let doc = Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("check: could not parse {}: {e}", path.display());
        std::process::exit(2);
    });
    let Some(last) = doc.get("history").and_then(Json::arr).and_then(|h| h.last()) else {
        eprintln!("check: no usable history in {}", path.display());
        std::process::exit(2);
    };
    let label = last.get("label").and_then(Json::str).unwrap_or("unlabeled");
    let baseline: Vec<(&str, f64, f64)> = last
        .get("ops")
        .and_then(Json::arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|o| {
            Some((
                o.get("op").and_then(Json::str)?,
                o.get("ns_per_op").and_then(Json::num)?,
                o.get("allocs_per_op").and_then(Json::num)?,
            ))
        })
        .collect();
    if baseline.is_empty() {
        eprintln!("check: entry '{label}' has no ops");
        std::process::exit(2);
    }
    println!("gate: entry '{label}', {} ops, tolerance {tolerance:.2}", baseline.len());
    let fresh: Vec<OpResult> = OPS.iter().map(|&op| run_op(op, reps)).collect();
    let mut failed = false;
    for (name, base_ns, base_allocs) in baseline {
        let Some(f) = fresh.iter().find(|r| r.name == name) else {
            eprintln!("gate FAIL: op '{name}' no longer measured");
            failed = true;
            continue;
        };
        if f.allocs_per_op > base_allocs + ALLOC_SLACK {
            eprintln!(
                "gate FAIL: {name} allocs/op {:.4} > baseline {base_allocs:.4} + {ALLOC_SLACK}",
                f.allocs_per_op
            );
            failed = true;
        }
        if f.ns_per_op > base_ns * (1.0 + tolerance) {
            eprintln!(
                "gate FAIL: {name} ns/op {:.1} > baseline {base_ns:.1} * {:.2}",
                f.ns_per_op,
                1.0 + tolerance
            );
            failed = true;
        }
    }
    // Launch-allocation gate: COW shadows hold allocs/launch flat, so a
    // rise past the slack means the launch path started deep-copying
    // buffers again. Entries predating the section are skipped.
    let launch_baseline: Vec<(&str, f64)> = last
        .get("launches")
        .and_then(Json::arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|l| {
            Some((
                l.get("family").and_then(Json::str)?,
                l.get("allocs_per_launch").and_then(Json::num)?,
            ))
        })
        .collect();
    for &threads in &LAUNCH_THREADS {
        let fresh = run_launches(threads);
        let Some(&(_, base)) = launch_baseline.iter().find(|(f, _)| *f == fresh.family) else {
            continue;
        };
        if fresh.allocs_per_launch > base + ALLOC_SLACK {
            eprintln!(
                "gate FAIL: {} allocs/launch {:.4} > baseline {base:.4} + {ALLOC_SLACK}",
                fresh.family, fresh.allocs_per_launch
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("gate OK: every op within allocs +{ALLOC_SLACK} and ns *{:.2}", 1.0 + tolerance);
    std::process::exit(0);
}

fn run_op(op: &'static str, reps: u32) -> OpResult {
    let (dev, block) = op_shape(op);
    let mut gm = GlobalMem::new();
    let buf_f = gm.alloc_f32(256 * STRIDE as usize);
    let buf_u = gm.alloc_u32(256);
    let k = OpKernel { op, reps, buf_f, buf_u };
    let cfg = LaunchConfig::new(1, block).shared(4 * 256);
    // Warm-up launch: fills the thread-local pools and caches.
    launch(&dev, &cfg, &k, &mut gm, SimMode::Full).unwrap();

    let rounds = 8u32;
    let before_allocs = ALLOC_CALLS.load(Ordering::Relaxed);
    let t0 = Instant::now();
    for _ in 0..rounds {
        launch(&dev, &cfg, &k, &mut gm, SimMode::Full).unwrap();
    }
    let elapsed = t0.elapsed();
    let allocs = ALLOC_CALLS.load(Ordering::Relaxed) - before_allocs;
    let total_ops = (reps as u64) * rounds as u64;
    OpResult {
        name: op,
        ns_per_op: elapsed.as_nanos() as f64 / total_ops as f64,
        allocs_per_op: allocs as f64 / total_ops as f64,
    }
}

fn render(label: &str, results: &[OpResult], launches: &[LaunchAllocResult]) -> String {
    let rows: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "      {{\"op\": \"{}\", \"ns_per_op\": {:.1}, \"allocs_per_op\": {:.4}}}",
                r.name, r.ns_per_op, r.allocs_per_op
            )
        })
        .collect();
    let launch_rows: Vec<String> = launches
        .iter()
        .map(|l| {
            format!(
                "      {{\"family\": \"{}\", \"threads\": {}, \"launches\": {}, \
                 \"allocs_per_launch\": {:.4}}}",
                l.family, l.threads, l.launches, l.allocs_per_launch
            )
        })
        .collect();
    format!(
        "    {{\n      \"label\": \"{label}\",\n      \"block\": 256,\n      \"ops\": [\n{}\n      \
         ],\n      \"launches\": [\n{}\n      ]\n    }}",
        rows.join(",\n"),
        launch_rows.join(",\n")
    )
}

fn main() {
    let mut label = String::from("dev");
    let mut append = false;
    let mut reps: u32 = 4096;
    let mut out = std::path::PathBuf::from("BENCH_interp.json");
    let mut check_path: Option<std::path::PathBuf> = None;
    let mut tolerance = 0.50;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--label" => label = it.next().expect("--label S"),
            "--append" => append = true,
            "--reps" => reps = it.next().expect("--reps R").parse().expect("--reps R"),
            "--out" => out = it.next().expect("--out FILE").into(),
            "--check" => check_path = Some(it.next().expect("--check FILE").into()),
            "--tolerance" => {
                tolerance = it.next().expect("--tolerance T").parse().expect("--tolerance T");
            }
            other => {
                eprintln!("unknown arg {other}");
                std::process::exit(2);
            }
        }
    }
    if let Some(path) = &check_path {
        check(path, tolerance, reps);
    }

    let results: Vec<OpResult> = OPS.iter().map(|&op| run_op(op, reps)).collect();
    println!("{:<24} {:>10} {:>12}", "op", "ns/op", "allocs/op");
    for r in &results {
        println!("{:<24} {:>10.1} {:>12.4}", r.name, r.ns_per_op, r.allocs_per_op);
    }
    let launches: Vec<LaunchAllocResult> =
        LAUNCH_THREADS.iter().map(|&t| run_launches(t)).collect();
    println!("{:<24} {:>10} {:>15}", "family", "launches", "allocs/launch");
    for l in &launches {
        println!("{:<24} {:>10} {:>15.4}", l.family, l.launches, l.allocs_per_launch);
    }

    // Keep prior history entries (drop any with the same label).
    let mut entries: Vec<String> = Vec::new();
    if append {
        if let Ok(text) = std::fs::read_to_string(&out) {
            if let Ok(doc) = Json::parse(&text) {
                if let Some(hist) = doc.get("history").and_then(Json::arr) {
                    for e in hist {
                        let lbl = e.get("label").and_then(Json::str).unwrap_or("");
                        if lbl == label {
                            continue;
                        }
                        let ops: Vec<String> = e
                            .get("ops")
                            .and_then(Json::arr)
                            .unwrap_or(&[])
                            .iter()
                            .map(|o| {
                                format!(
                                    "      {{\"op\": \"{}\", \"ns_per_op\": {:.1}, \
                                     \"allocs_per_op\": {:.4}}}",
                                    o.get("op").and_then(Json::str).unwrap_or("?"),
                                    o.get("ns_per_op").and_then(Json::num).unwrap_or(0.0),
                                    o.get("allocs_per_op").and_then(Json::num).unwrap_or(0.0)
                                )
                            })
                            .collect();
                        // Pre-PR-8 entries have no launch section; keep
                        // whatever each entry recorded.
                        let old_launches: Vec<String> = e
                            .get("launches")
                            .and_then(Json::arr)
                            .unwrap_or(&[])
                            .iter()
                            .map(|l| {
                                format!(
                                    "      {{\"family\": \"{}\", \"threads\": {}, \
                                     \"launches\": {}, \"allocs_per_launch\": {:.4}}}",
                                    l.get("family").and_then(Json::str).unwrap_or("?"),
                                    l.get("threads").and_then(Json::num).unwrap_or(0.0) as u64,
                                    l.get("launches").and_then(Json::num).unwrap_or(0.0) as u64,
                                    l.get("allocs_per_launch").and_then(Json::num).unwrap_or(0.0)
                                )
                            })
                            .collect();
                        let launches_part = if old_launches.is_empty() {
                            String::new()
                        } else {
                            format!(
                                ",\n      \"launches\": [\n{}\n      ]",
                                old_launches.join(",\n")
                            )
                        };
                        entries.push(format!(
                            "    {{\n      \"label\": \"{lbl}\",\n      \"block\": {},\n      \
                             \"ops\": [\n{}\n      ]{launches_part}\n    }}",
                            e.get("block").and_then(Json::num).unwrap_or(256.0) as u32,
                            ops.join(",\n")
                        ));
                    }
                }
            }
        }
    }
    entries.push(render(&label, &results, &launches));

    let json = format!(
        "{{\n  \"bench\": \"blockctx_ops\",\n  \"history\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    match std::fs::write(&out, &json) {
        Ok(()) => println!("-> {}", out.display()),
        Err(e) => {
            eprintln!("could not write {}: {e}", out.display());
            std::process::exit(1);
        }
    }
}

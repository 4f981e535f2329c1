//! `perfbench` — the layered benchmark of the GPU-ACO solve stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload construct --seed 7 --seconds 15 --trace 0
//! ```
//!
//! With `--trace 0` it runs the workload's closed loop through the public
//! `aco_engine::Engine` API and prints every end-to-end metric; with
//! `--trace 1` it adds a traced loop and replays of every job outside the
//! scheduler, and prints every per-layer metric. Either way the last line
//! of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Outputs are checked every run: valid permutations, recomputed lengths,
//! no failures, repeats of a job bit-identical; at the default seed also
//! the golden table. See `perfbench/README.md`.

mod calib;
mod catalog;
mod cli;
mod golden;
mod host;
mod json;
mod loadgen;
mod span;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use json::{obj, Value};
use loadgen::{LoopResult, Setup, MIN_JOBS};
use workloads::WorkloadKind;

/// Set-ups per run: at least `SETUP_REPS`, and more (up to
/// `MAX_SETUP_REPS`) while together they take under `SETUP_BUDGET_S`;
/// `setup_s` is their median.
const SETUP_REPS: usize = 3;
const MAX_SETUP_REPS: usize = 9;
const SETUP_BUDGET_S: f64 = 2.0;
/// Host-speed reference samples before the first set-up and after each;
/// a set-up is scaled by the median of the samples on both sides of it.
const SETUP_SPEED_SAMPLES: usize = 8;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match cli::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &cli::Args) -> Result<(), String> {
    let kind = args.workload;
    println!("host {}", host::fingerprint(args.seed).to_json());
    println!(
        "config {}",
        obj(vec![
            ("workload", Value::Str(kind.name().into())),
            ("clients", Value::Num(kind.clients() as f64)),
            ("workers", Value::Num(kind.workers() as f64)),
            ("exec_threads", Value::Num(kind.exec_threads() as f64)),
            ("seconds", Value::Num(args.seconds as f64)),
            ("trace", Value::Bool(args.trace)),
            ("loop", Value::Str("closed".into())),
        ])
        .to_json()
    );
    if args.write_golden {
        return write_golden(kind);
    }

    // Set up several times (at least SETUP_REPS, more while they take
    // under SETUP_BUDGET in all); measure on the last one. Each set-up's
    // time is kept raw and at the nominal host speed.
    let mut setup_s: Vec<(f64, f64)> = Vec::new();
    let mut setup = None;
    let mut before = calib::samples(SETUP_SPEED_SAMPLES);
    while setup_s.len() < SETUP_REPS
        || (setup_s.iter().map(|s| s.0).sum::<f64>() < SETUP_BUDGET_S
            && setup_s.len() < MAX_SETUP_REPS)
    {
        drop(setup.take());
        let s = loadgen::setup(kind, args.seed)?;
        let after = calib::samples(SETUP_SPEED_SAMPLES);
        let around: Vec<f64> = before.iter().chain(&after).copied().collect();
        let rate = stats::median(&around).unwrap_or(calib::NOMINAL_RATE);
        setup_s.push((s.seconds, s.seconds * rate / calib::NOMINAL_RATE));
        setup = Some(s);
        before = after;
    }
    let setup = setup.expect("at least one set-up");
    let seconds = args.seconds as f64;

    // One untimed cycle per client first, so thread-local allocator
    // arenas and caches are settled before the window opens.
    let _ = loadgen::closed_loop(&setup, kind.clients(), 0.0, 0, false);
    if !host::reset_peak_rss() {
        println!("peak RSS could not be reset; peak_rss_mb includes set-up");
    }
    let measured = loadgen::closed_loop(&setup, kind.clients(), seconds, MIN_JOBS, false);
    let peak_rss_mb = host::peak_rss_mb().unwrap_or(0.0);
    let mut problems = loadgen::check(&setup, &measured);
    if args.seed == golden::GOLDEN_SEED {
        problems.extend(check_golden(kind, &setup, &measured)?);
    }
    println!(
        "digest {:016x} (seed {}, {} cycle jobs)",
        digest(&setup, &measured),
        args.seed,
        setup.jobs.len()
    );

    let attempted = measured.completed.len();
    let failed = measured.completed.iter().filter(|c| c.result.is_err()).count();
    let (metrics, more) = if args.trace {
        traced_metrics(kind, &setup, &measured, seconds)
    } else {
        end_to_end(&setup, &measured, &setup_s, peak_rss_mb)
    };
    problems.extend(more);
    for p in &problems {
        println!("problem: {p}");
    }
    let correct = problems.is_empty() && failed == 0;
    let metrics = Value::Obj(
        metrics
            .into_iter()
            .map(|(name, value, unit)| {
                (name, obj(vec![("value", Value::Num(value)), ("unit", Value::Str(unit.into()))]))
            })
            .collect(),
    );
    println!(
        "{}",
        obj(vec![
            ("correct", Value::Bool(correct)),
            ("attempted", Value::Num(attempted as f64)),
            ("failed", Value::Num(failed as f64)),
            ("metrics", metrics),
        ])
        .to_json()
    );
    Ok(())
}

type Metrics = Vec<(String, f64, &'static str)>;

fn end_to_end(
    setup: &Setup,
    run: &LoopResult,
    setup_s: &[(f64, f64)],
    peak_rss_mb: f64,
) -> (Metrics, Vec<String>) {
    let mut problems = Vec::new();
    let ok = run.completed.iter().filter(|c| c.result.is_ok()).count();
    let raw_walls = run.walls(false);
    let walls = run.walls(true);
    let mut pct = |walls: &[f64], p: f64| {
        stats::percentile(walls, p).unwrap_or_else(|e| {
            problems.push(format!("job_wall_ms: {e}"));
            0.0
        })
    };
    let (p50, p90) = (pct(&walls, 0.5), pct(&walls, 0.9));
    let raw = |p: f64| stats::percentile(&raw_walls, p).unwrap_or(f64::NAN);
    let (raw_p50, raw_p90) = (raw(0.5), raw(0.9));
    let firsts = loadgen::first_reports(run, setup.jobs.len());
    let per_iter: Vec<f64> =
        firsts.iter().flatten().map(|(r, _)| r.modeled_ms / r.iterations.max(1) as f64).collect();
    let ratios: Vec<f64> = setup
        .jobs
        .iter()
        .zip(&firsts)
        .filter_map(|(spec, first)| {
            let m = setup.instances[spec.instance].matrix();
            let greedy = aco_tsp::nearest_neighbor_tour(m, 0).length(m);
            first.map(|(r, _)| r.best_len as f64 / greedy as f64)
        })
        .collect();
    println!(
        "samples: {} jobs in {:.3} s ({:.3} jobs/s overall); {} client cycles over a {}-job list",
        run.completed.len(),
        run.elapsed_s,
        ok as f64 / run.elapsed_s,
        run.cycle_count(),
        setup.jobs.len()
    );
    let mut sorted = raw_walls.clone();
    sorted.sort_by(f64::total_cmp);
    let deciles: Vec<String> = (1..10)
        .map(|d| format!("{:.1}", sorted[(d * sorted.len() / 10).min(sorted.len() - 1)]))
        .collect();
    println!("raw job_wall_ms deciles p10..p90: {}", deciles.join(" "));
    let mut per_job: Vec<(f64, &str)> = (0..setup.jobs.len())
        .filter_map(|j| {
            let w: Vec<f64> =
                run.completed.iter().filter(|c| c.job == j).map(|c| c.wall_ms).collect();
            stats::median(&w).map(|m| (m, setup.jobs[j].label.as_str()))
        })
        .collect();
    per_job.sort_by(|a, b| a.0.total_cmp(&b.0));
    let per_job: Vec<String> = per_job.iter().map(|(m, l)| format!("{l}={m:.1}")).collect();
    println!("raw job_wall_ms median per cycle job, ascending: {}", per_job.join(" "));
    for (c, (_, spans)) in run.cycles.iter().enumerate() {
        let cycles: Vec<String> = spans
            .iter()
            .map(|&(a, b)| format!("{:.3}/{:.3}", b - a, (b - a) * run.speed_factor(a, b)))
            .collect();
        println!("client {c} cycle seconds raw/nominal: {}", cycles.join(" "));
    }
    let setup_raw: Vec<f64> = setup_s.iter().map(|s| s.0).collect();
    let setup_nominal: Vec<f64> = setup_s.iter().map(|s| s.1).collect();
    let window_rates: Vec<f64> = run.speed.iter().map(|&(_, r)| r).collect();
    println!(
        "raw host time: jobs_per_s {:.4} job_wall_ms.p50 {raw_p50:.4} p90 {raw_p90:.4} setup_s {:.4} ({} set-ups); reported at the nominal host speed of {} reference Mops/s ({} in-window reference samples, median {:.2})",
        run.jobs_per_s(false),
        stats::median(&setup_raw).unwrap_or(0.0),
        setup_s.len(),
        calib::NOMINAL_RATE,
        window_rates.len(),
        stats::median(&window_rates).unwrap_or(0.0),
    );
    let metrics: Metrics = vec![
        ("jobs_per_s".into(), run.jobs_per_s(true), "1/s"),
        ("job_wall_ms.p50".into(), p50, "ms"),
        ("job_wall_ms.p90".into(), p90, "ms"),
        ("ok_share".into(), ok as f64 / run.completed.len().max(1) as f64, "ratio"),
        ("modeled_ms_per_iter".into(), stats::mean(&per_iter).unwrap_or(0.0), "ms"),
        ("tour_len_ratio".into(), stats::mean(&ratios).unwrap_or(0.0), "ratio"),
        ("setup_s".into(), stats::median(&setup_nominal).unwrap_or(0.0), "s"),
        ("peak_rss_mb".into(), peak_rss_mb, "MiB"),
    ];
    for (m, (_, v, _)) in catalog::END_TO_END.iter().zip(&metrics) {
        println!(
            "metric {:<22} {:>14.6} {:<6} {} is better: {}",
            m.name, v, m.unit, m.better, m.note
        );
    }
    (metrics, problems)
}

/// The traced run: a second loop with spans on (the first, `untraced`,
/// is the measured one), then the replays.
fn traced_metrics(
    kind: WorkloadKind,
    setup: &Setup,
    untraced: &LoopResult,
    seconds: f64,
) -> (Metrics, Vec<String>) {
    let mut rec = span::Recorder::new();
    let traced = loadgen::closed_loop(setup, kind.clients(), seconds, MIN_JOBS, true);
    let mut problems = loadgen::check(setup, &traced);
    let out = trace::run(kind, setup, untraced, &traced, &mut rec);
    for line in &out.lines {
        println!("{line}");
    }
    for m in catalog::PER_LAYER {
        if let Some((_, v, _)) = out.metrics.iter().find(|(n, _, _)| n == m.name) {
            println!("layer {:<40} {:>14.6} {:<6} moves: {}", m.name, v, m.unit, m.note);
        }
    }
    problems.extend(out.problems);
    (out.metrics, problems)
}

/// Compare the cycle's results with the golden table (runs at the
/// default seed only).
fn check_golden(
    kind: WorkloadKind,
    setup: &Setup,
    measured: &LoopResult,
) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(golden::path())
        .map_err(|e| format!("cannot read {}: {e}", golden::path()))?;
    let table = golden::parse(&text)?;
    let expected = table.get(kind.name()).ok_or(format!("golden table has no {}", kind.name()))?;
    Ok(golden::compare(expected, &golden_entries(setup, measured)))
}

fn golden_entries(setup: &Setup, run: &LoopResult) -> Vec<golden::Entry> {
    setup
        .jobs
        .iter()
        .zip(loadgen::first_reports(run, setup.jobs.len()))
        .filter_map(|(spec, first)| first.map(|(rep, tl)| golden::Entry::new(&spec.label, rep, tl)))
        .collect()
}

/// Regenerate this workload's golden entries at the default seed.
fn write_golden(kind: WorkloadKind) -> Result<(), String> {
    let setup = loadgen::setup(kind, golden::GOLDEN_SEED)?;
    let run = loadgen::closed_loop(&setup, kind.clients(), 0.0, 0, false);
    let problems = loadgen::check(&setup, &run);
    if !problems.is_empty() {
        return Err(format!("refusing to record a failing run: {problems:?}"));
    }
    let mut table = match std::fs::read_to_string(golden::path()) {
        Ok(text) => golden::parse(&text)?,
        Err(_) => golden::Table::new(),
    };
    table.insert(kind.name().to_string(), golden_entries(&setup, &run));
    std::fs::write(golden::path(), golden::render(&table))
        .map_err(|e| format!("cannot write {}: {e}", golden::path()))?;
    println!("wrote {} golden entries for {}", setup.jobs.len(), kind.name());
    Ok(())
}

/// FNV-1a over every cycle job's first result: two runs at one seed must
/// print the same digest.
fn digest(setup: &Setup, run: &LoopResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for first in loadgen::first_reports(run, setup.jobs.len()) {
        match first {
            Some((rep, _)) => {
                eat(rep.best_len);
                eat(rep.modeled_ms.to_bits());
                eat(rep.iterations as u64);
                rep.best_tour.order().iter().for_each(|&c| eat(u64::from(c)));
            }
            None => eat(u64::MAX),
        }
    }
    h
}

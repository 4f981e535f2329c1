//! The traced run: spans around calls into each layer's public
//! functions, recorded from the benchmark's own code.
//!
//! * **Solve replay.** Each cycle job is replayed outside the scheduler
//!   (`auto::resolve` → `build_solver` → `Solver::solve`) and must
//!   reproduce the engine's report bit for bit. Job wall minus replayed
//!   solve is the engine's overhead.
//! * **Phase replay.** Each `Backend::Gpu` job is replayed once more,
//!   phase function by phase function (`run_tour_threads`, the local
//!   search kernels, `run_pheromone_threads`, and the host tracking of
//!   `read_tours` + `Tour::length`), exactly as the colony drives them.
//!   Where that cannot reproduce the report (`GpuAcs` and the CPU
//!   colonies expose no phase functions), the job is named and reported
//!   at solve level only.
//! * **Launch counts** come from an `aco_obs::kernel::install` sink.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use aco_core::gpu::{run_pheromone_threads, run_tour_threads, ColonyBuffers};
use aco_core::{AcoParams, PheromoneStrategy, TourStrategy};
use aco_devices::{DeviceAffinity, DeviceId, DevicePool, PlacementStrategy};
use aco_engine::{
    auto, build_solver, ArtifactCache, Backend, GpuBinding, InstanceArtifacts, LocalSearch,
    LsScope, SolveCtx, SolveReport,
};
use aco_localsearch::{
    run_or_opt, run_two_opt, run_two_opt_all, OrOptDev, TwoOptBatchDev, TwoOptDev,
};
use aco_obs::{KernelProfiler, KernelSink};
use aco_simt::{DeviceSpec, GlobalMem, KernelStats, SimMode};
use aco_tsp::{Tour, TspInstance};

use crate::loadgen::{self, LoopResult, Setup};
use crate::span::{Recorder, SpanId};
use crate::stats;
use crate::workloads::{JobSpec, WorkloadKind};

/// Solve replays per job (the median is used).
const SOLVE_REPS: usize = 3;
/// Alternating 1-thread / 2-thread rounds for the exec speed-up.
const EXEC_ROUNDS: usize = 3;

/// Per-phase totals over the phase-replayed jobs.
#[derive(Debug, Default, Clone)]
pub struct Phase {
    pub calls: u64,
    pub host_ms: f64,
    pub modeled_ms: f64,
    pub warp_instructions: f64,
    pub dram_bytes: f64,
}

impl Phase {
    fn add(&mut self, host_ms: f64, modeled_ms: f64, stats: Option<&KernelStats>) {
        self.calls += 1;
        self.host_ms += host_ms;
        self.modeled_ms += modeled_ms;
        if let Some(s) = stats {
            self.warp_instructions += s.warp_instructions;
            self.dram_bytes += s.dram_bytes;
        }
    }

    fn merge(&mut self, other: &Phase) {
        self.calls += other.calls;
        self.host_ms += other.host_ms;
        self.modeled_ms += other.modeled_ms;
        self.warp_instructions += other.warp_instructions;
        self.dram_bytes += other.dram_bytes;
    }

    fn per_call_host(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.host_ms / self.calls as f64
        }
    }

    fn per_call_modeled(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.modeled_ms / self.calls as f64
        }
    }

    fn ns_per_warp_inst(&self) -> f64 {
        if self.warp_instructions > 0.0 {
            self.host_ms * 1e6 / self.warp_instructions
        } else {
            0.0
        }
    }
}

/// Everything the traced run measured.
pub struct Traced {
    pub metrics: Vec<(String, f64, &'static str)>,
    pub lines: Vec<String>,
    pub problems: Vec<String>,
}

/// The replay's view of the engine's pool: same profiles, same specs.
struct Replayer<'a> {
    setup: &'a Setup,
    pool: DevicePool,
    cache: ArtifactCache,
}

impl Replayer<'_> {
    fn binding(&self, device: Option<DeviceId>) -> Option<GpuBinding> {
        let d = device?;
        Some(GpuBinding {
            spec: self.pool.spec(d)?.clone(),
            exec_threads: self.pool.profile(d)?.exec_threads,
            donated: None,
        })
    }

    fn artifacts(&self, spec: &JobSpec) -> Arc<InstanceArtifacts> {
        self.cache.artifacts(&self.setup.instances[spec.instance], spec.params.nn_size)
    }

    fn resolve(&self, spec: &JobSpec, params: &AcoParams, art: &InstanceArtifacts) -> Backend {
        auto::resolve(
            &spec.backend,
            &self.setup.instances[spec.instance],
            params,
            art,
            &self.cache,
            &self.pool,
            DeviceAffinity::Any,
            spec.local_search,
            spec.scope,
        )
    }

    /// `resolve` → `build_solver` → `Solver::solve`, as the scheduler's
    /// worker runs an attempt, bound to the device the engine chose.
    fn solve(
        &self,
        spec: &JobSpec,
        device: Option<DeviceId>,
        sink: Option<Arc<KernelProfiler>>,
    ) -> Result<SolveReport, String> {
        let inst = &self.setup.instances[spec.instance];
        let params = spec.params.clone().seed(spec.seed);
        let art = self.artifacts(spec);
        let backend = self.resolve(spec, &params, &art);
        let _scope = sink.map(|p| aco_obs::install(KernelSink { trace: None, profiler: Some(p) }));
        let mut solver = build_solver(
            &backend,
            inst,
            &params,
            &art,
            self.binding(device),
            spec.local_search,
            spec.scope,
        );
        let mut rep = solver
            .solve(spec.iterations, spec.seed, &SolveCtx::new())
            .map_err(|e| format!("{}: replay failed: {e}", spec.label))?;
        rep.instance = inst.name().to_string();
        rep.n = inst.n();
        rep.device = device;
        Ok(rep)
    }
}

/// Phase-replay output of one job.
struct PhaseRun {
    best: Option<(Tour, u64)>,
    modeled_ms: f64,
    construct: Phase,
    pheromone: Phase,
    local_search: Phase,
    host_track: Phase,
    rounds: u64,
    moves: u64,
}

/// First strict minimum — the colonies' iteration-best choice.
fn first_min(lens: &[u64]) -> usize {
    let mut k = 0;
    for (i, &l) in lens.iter().enumerate() {
        if l < lens[k] {
            k = i;
        }
    }
    k
}

/// Device scratch of the configured local search, allocated after the
/// colony buffers in the colony's own order (allocation order fixes
/// device addresses, and with them the modeled memory behaviour).
enum LsDev {
    None,
    PerAnt(TwoOptDev),
    Batch(TwoOptBatchDev),
    OrOpt(OrOptDev),
}

fn alloc_ls(
    gm: &mut GlobalMem,
    b: &ColonyBuffers,
    ls: LocalSearch,
    scope: LsScope,
) -> Option<LsDev> {
    Some(match (ls.per_iteration(), scope) {
        (LocalSearch::None, _) => LsDev::None,
        (LocalSearch::TwoOptNn, LsScope::AllAnts) => LsDev::Batch(TwoOptBatchDev::allocate(
            gm, b.n, b.m, b.nn, b.stride, b.dist, b.tours, b.lengths, b.nn_list,
        )),
        (LocalSearch::TwoOptNn, LsScope::IterationBest) => LsDev::PerAnt(TwoOptDev::allocate(
            gm, b.n, b.nn, b.stride, b.dist, b.tours, b.lengths, b.nn_list,
        )),
        (LocalSearch::OrOpt, _) => LsDev::OrOpt(OrOptDev::allocate(
            gm, b.n, b.m, b.nn, b.stride, b.dist, b.tours, b.lengths, b.nn_list,
        )),
        // The host-only passes have no device phase function.
        _ => return None,
    })
}

/// Replay one `Backend::Gpu` job phase by phase, with a span per call.
#[allow(clippy::too_many_arguments)]
fn replay_phases(
    rec: &mut Recorder,
    request: u64,
    parent: SpanId,
    inst: &TspInstance,
    spec: &JobSpec,
    art: &InstanceArtifacts,
    dev: &DeviceSpec,
    threads: usize,
    tour: TourStrategy,
    pheromone: PheromoneStrategy,
) -> Result<Option<PhaseRun>, String> {
    let err = |e: aco_simt::SimtError| format!("{}: phase replay: {e}", spec.label);
    let params = spec.params.clone().seed(spec.seed);
    let mut gm = GlobalMem::new();
    let bufs = ColonyBuffers::allocate_with_artifacts(&mut gm, inst, &params, &art.nn, art.c_nn);
    let Some(ls_dev) = alloc_ls(&mut gm, &bufs, spec.local_search, spec.scope) else {
        return Ok(None);
    };
    let n = bufs.n as usize;
    let stride = bufs.stride as usize;
    let mut out = PhaseRun {
        best: None,
        modeled_ms: 0.0,
        construct: Phase::default(),
        pheromone: Phase::default(),
        local_search: Phase::default(),
        host_track: Phase::default(),
        rounds: 0,
        moves: 0,
    };
    let timed = |rec: &mut Recorder, name: &'static str| rec.start(name, request, Some(parent));
    for iteration in 0..spec.iterations as u64 {
        let s = timed(rec, "construct");
        let t = Instant::now();
        let tour_run = run_tour_threads(
            dev,
            &mut gm,
            bufs,
            tour,
            params.alpha,
            params.beta,
            params.seed,
            iteration,
            SimMode::Full,
            threads,
        )
        .map_err(err)?;
        out.construct.add(ms_since(t), tour_run.total_ms(), Some(&tour_run.stats));
        rec.end(s);

        let s = timed(rec, "host_track");
        let t = Instant::now();
        let mut tours: Vec<Tour> = bufs
            .read_tours(&gm)
            .into_iter()
            .map(|row| Tour::new(row[..n].to_vec()))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("{}: device tour is not a permutation: {e}", spec.label))?;
        let mut lens: Vec<u64> = tours.iter().map(|t| t.length(inst.matrix())).collect();
        out.host_track.add(ms_since(t), 0.0, None);
        rec.end(s);

        let mut ls_ms = 0.0;
        if spec.local_search.runs_per_iteration() {
            let ants: Vec<usize> = match spec.scope {
                LsScope::IterationBest => vec![first_min(&lens)],
                LsScope::AllAnts => (0..tours.len()).collect(),
            };
            let s = timed(rec, "local_search");
            let t = Instant::now();
            let (ms, rounds, moves, stats) = match ls_dev {
                LsDev::Batch(d) if ants.len() > 1 => {
                    let r = run_two_opt_all(dev, &mut gm, d, threads).map_err(err)?;
                    (r.ms, r.rounds, r.moves, r.stats)
                }
                LsDev::PerAnt(d) if ants.len() == 1 => {
                    let r = run_two_opt(dev, &mut gm, d, ants[0] as u32, threads).map_err(err)?;
                    (r.ms, r.rounds, r.moves, r.stats)
                }
                LsDev::OrOpt(d) => {
                    let r = run_or_opt(dev, &mut gm, d, ants[0] as u32, ants.len() as u32, threads)
                        .map_err(err)?;
                    (r.ms, r.rounds, r.moves, r.stats)
                }
                _ => return Ok(None),
            };
            out.local_search.add(ms_since(t), ms, Some(&stats));
            out.rounds += u64::from(rounds);
            out.moves += u64::from(moves);
            ls_ms += ms;
            rec.end(s);

            // Re-read the improved rows and settle exact host lengths, as
            // the colony does before the pheromone update.
            let s = timed(rec, "host_track");
            let t = Instant::now();
            for &ant in &ants {
                let row = gm.u32(bufs.tours)[ant * stride..ant * stride + n].to_vec();
                tours[ant] = Tour::new(row)
                    .map_err(|e| format!("{}: local search broke a tour: {e}", spec.label))?;
                lens[ant] = tours[ant].length(inst.matrix());
                gm.f32_mut(bufs.lengths)[ant] = lens[ant] as f32;
            }
            out.host_track.add(ms_since(t), 0.0, None);
            rec.end(s);
        }
        let k = first_min(&lens);
        if out.best.as_ref().is_none_or(|&(_, b)| lens[k] < b) {
            out.best = Some((tours[k].clone(), lens[k]));
        }

        let s = timed(rec, "pheromone");
        let t = Instant::now();
        let ph = run_pheromone_threads(
            dev,
            &mut gm,
            bufs,
            pheromone,
            params.rho,
            SimMode::Full,
            threads,
        )
        .map_err(err)?;
        out.pheromone.add(ms_since(t), ph.time.total_ms, Some(&ph.stats));
        rec.end(s);
        // The colony's report clock, summed in the colony's order.
        out.modeled_ms += tour_run.total_ms() + ph.time.total_ms + ls_ms;
    }
    Ok(Some(out))
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Median job wall per cycle job in a loop.
fn wall_by_job(run: &LoopResult, n_jobs: usize) -> Vec<f64> {
    let mut walls = vec![Vec::new(); n_jobs];
    for c in &run.completed {
        walls[c.job].push(c.wall_ms);
    }
    walls.iter().map(|w| stats::median(w).unwrap_or(0.0)).collect()
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// The traced run's per-layer measurements. `untraced` and `traced` are
/// the two loops of this run (spans off and on).
pub fn run(
    kind: WorkloadKind,
    setup: &Setup,
    untraced: &LoopResult,
    traced: &LoopResult,
    rec: &mut Recorder,
) -> Traced {
    let mut lines = Vec::new();
    let mut problems = Vec::new();
    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        metrics.push((name.to_string(), if value.is_finite() { value } else { 0.0 }, unit))
    };
    let n_jobs = setup.jobs.len();
    let engine_reports = loadgen::first_reports(traced, n_jobs);

    // --- engine: queue wait and artifact cache, from the traced loop.
    let waits: Vec<f64> = traced
        .completed
        .iter()
        .filter_map(|c| c.timeline.as_ref().map(|t| t.queue_wait_ms))
        .collect();
    for (p, name) in [(0.5, "engine.queue_wait_ms.p50"), (0.9, "engine.queue_wait_ms.p90")] {
        match stats::percentile(&waits, p) {
            Ok(v) => put(name, v, "ms"),
            Err(e) => problems.push(format!("{name}: {e}")),
        }
    }
    let cs = setup.engine.cache_stats();
    put(
        "engine.cache.artifact_hit_ratio",
        share(cs.artifact_hits as f64, (cs.artifact_hits + cs.artifact_misses) as f64),
        "ratio",
    );

    let replayer = Replayer {
        setup,
        pool: DevicePool::new(kind.engine_config().devices, PlacementStrategy::default()),
        cache: ArtifactCache::new(),
    };

    // --- cold set-up work: artifacts per instance, auto decisions per
    // (instance, configuration).
    let mut art_ms = Vec::new();
    for (i, inst) in setup.instances.iter().enumerate() {
        let nn = setup.jobs.iter().find(|j| j.instance == i).map_or(30, |j| j.params.nn_size);
        let t = Instant::now();
        let span = rec.start("tsp.artifacts", i as u64, None);
        let _ = ArtifactCache::new().artifacts(inst, nn);
        rec.end(span);
        art_ms.push(ms_since(t));
    }
    put("tsp.artifacts_ms", stats::mean(&art_ms).unwrap_or(0.0), "ms");
    let mut resolve_ms = Vec::new();
    for (i, params, ls, scope) in loadgen::configs(&setup.jobs) {
        let inst = &setup.instances[i];
        let art = replayer.cache.artifacts(inst, params.nn_size);
        let cold = ArtifactCache::new();
        let t = Instant::now();
        let span = rec.start("engine.auto.resolve", i as u64, None);
        let _ = auto::resolve(
            &Backend::Auto,
            inst,
            &params,
            &art,
            &cold,
            &replayer.pool,
            DeviceAffinity::Any,
            ls,
            scope,
        );
        rec.end(span);
        resolve_ms.push(ms_since(t));
    }
    put("engine.auto.resolve_ms", stats::mean(&resolve_ms).unwrap_or(0.0), "ms");

    // --- solve replay: bit-exact against the engine, and its wall time.
    let mut solve_ms = vec![0.0; n_jobs];
    let mut launches: BTreeMap<String, (u64, f64)> = BTreeMap::new();
    for (j, spec) in setup.jobs.iter().enumerate() {
        let Some((engine_rep, timeline)) = engine_reports[j] else {
            problems.push(format!("{}: no engine report to replay", spec.label));
            continue;
        };
        let mut walls = Vec::new();
        for rep_i in 0..SOLVE_REPS {
            let profiler = (rep_i == 0).then(|| Arc::new(KernelProfiler::new()));
            let t = Instant::now();
            let span = rec.start("solve", j as u64, None);
            let replay = replayer.solve(spec, engine_rep.device, profiler.clone());
            rec.end(span);
            walls.push(ms_since(t));
            match replay {
                Ok(rep) => {
                    if let Some(diff) = loadgen::same_result(engine_rep, &rep) {
                        problems.push(format!(
                            "{}: replay differs from the engine: {diff}",
                            spec.label
                        ));
                    }
                }
                Err(e) => problems.push(e),
            }
            if let Some(p) = profiler {
                let ours: Vec<(String, u64)> =
                    p.snapshot().into_iter().map(|k| (k.family, k.invocations)).collect();
                let mut theirs: Vec<(String, u64)> = timeline
                    .map(|t| t.kernels.iter().map(|k| (k.family.clone(), k.invocations)).collect())
                    .unwrap_or_default();
                theirs.sort();
                if ours != theirs {
                    problems.push(format!(
                        "{}: replay launches {ours:?} but the engine recorded {theirs:?}",
                        spec.label
                    ));
                }
                for k in p.snapshot() {
                    let e = launches.entry(k.family).or_default();
                    e.0 += k.invocations;
                    e.1 += k.modeled_ms;
                }
            }
        }
        solve_ms[j] = stats::median(&walls).unwrap_or(0.0);
    }
    put("core.solve.host_ms", stats::mean(&solve_ms).unwrap_or(0.0), "ms");

    // --- engine overhead: job wall minus the replayed solve.
    let overheads: Vec<f64> =
        traced.completed.iter().map(|c| c.wall_ms - solve_ms[c.job]).collect();
    match stats::percentile(&overheads, 0.5) {
        Ok(v) => put("engine.overhead_ms.p50", v, "ms"),
        Err(e) => problems.push(format!("engine.overhead_ms.p50: {e}")),
    }
    let total_wall: f64 = traced.completed.iter().map(|c| c.wall_ms).sum();
    put("engine.overhead_share", share(overheads.iter().sum(), total_wall), "ratio");

    // --- phase replay of every Backend::Gpu job.
    let mut construct = Phase::default();
    let mut pheromone = Phase::default();
    let mut local_search = Phase::default();
    let mut host_track = Phase::default();
    let (mut rounds, mut moves) = (0u64, 0u64);
    let mut phased = vec![false; n_jobs];
    let mut phase_self_ms = 0.0;
    let mut solve_only = Vec::new();
    let mut tour_combos = Vec::new();
    for (j, spec) in setup.jobs.iter().enumerate() {
        let Some((engine_rep, _)) = engine_reports[j] else { continue };
        let inst = &setup.instances[spec.instance];
        let (Backend::Gpu { tour, pheromone: ph, .. }, Some(bind)) =
            (&engine_rep.backend, replayer.binding(engine_rep.device))
        else {
            solve_only.push(spec.label.clone());
            continue;
        };
        tour_combos.push((spec.instance, bind.spec.clone(), *tour, spec.params.clone()));
        let art = replayer.artifacts(spec);
        // Every replay must reproduce the report; host times are medians.
        let run: Result<Option<Vec<(SpanId, PhaseRun)>>, String> = (0..SOLVE_REPS)
            .map(|_| {
                let root = rec.start("phases", j as u64, None);
                let run = replay_phases(
                    rec,
                    j as u64,
                    root,
                    inst,
                    spec,
                    &art,
                    &bind.spec,
                    bind.exec_threads,
                    *tour,
                    *ph,
                );
                rec.end(root);
                run.map(|r| r.map(|r| (root, r)))
            })
            .collect();
        match run {
            Ok(Some(runs)) => {
                let r = &runs[0].1;
                let exact = runs.iter().all(|(_, r)| {
                    r.best.as_ref().map(|(t, l)| (t, *l))
                        == Some((&engine_rep.best_tour, engine_rep.best_len))
                        && r.modeled_ms.to_bits() == engine_rep.modeled_ms.to_bits()
                });
                if exact {
                    phased[j] = true;
                    // Host time per phase: the median over the replays.
                    let median_of = |pick: fn(&PhaseRun) -> &Phase| {
                        let mut p = pick(r).clone();
                        let hosts: Vec<f64> = runs.iter().map(|(_, r)| pick(r).host_ms).collect();
                        p.host_ms = stats::median(&hosts).unwrap_or(0.0);
                        p
                    };
                    construct.merge(&median_of(|r| &r.construct));
                    pheromone.merge(&median_of(|r| &r.pheromone));
                    local_search.merge(&median_of(|r| &r.local_search));
                    host_track.merge(&median_of(|r| &r.host_track));
                    rounds += r.rounds;
                    moves += r.moves;
                    let selfs: Vec<f64> = runs.iter().map(|(s, _)| rec.self_time_ms(*s)).collect();
                    phase_self_ms += stats::median(&selfs).unwrap_or(0.0);
                } else {
                    lines.push(format!(
                        "phase replay of {} does not reproduce modeled_ms/best exactly; reported at solve level only",
                        spec.label
                    ));
                    solve_only.push(spec.label.clone());
                }
            }
            Ok(None) => solve_only.push(spec.label.clone()),
            Err(e) => problems.push(e),
        }
    }
    if !solve_only.is_empty() {
        lines.push(format!(
            "solve-level only ({} jobs, no public phase functions): {}",
            solve_only.len(),
            solve_only.join(", ")
        ));
    }
    for (name, p) in
        [("construct", &construct), ("pheromone", &pheromone), ("local_search", &local_search)]
    {
        put(&format!("core.{name}.host_ms"), p.per_call_host(), "ms");
        put(&format!("core.{name}.modeled_ms"), p.per_call_modeled(), "ms");
    }
    put("core.host_track_ms", host_track.per_call_host(), "ms");

    // --- reconciliation: job wall = engine + solve; solve = phases +
    // host tracking + unattributed (per cycle job, median walls).
    let wall = wall_by_job(traced, n_jobs);
    let sum_wall: f64 = wall.iter().sum();
    let sum_solve: f64 = solve_ms.iter().sum();
    let sum_phased_solve: f64 = (0..n_jobs).filter(|&j| phased[j]).map(|j| solve_ms[j]).sum();
    let phases_total =
        construct.host_ms + pheromone.host_ms + local_search.host_ms + host_track.host_ms;
    let unattributed = sum_phased_solve - phases_total;
    let parts = [
        ("engine", sum_wall - sum_solve),
        ("construct", construct.host_ms),
        ("local_search", local_search.host_ms),
        ("pheromone", pheromone.host_ms),
        ("host_track", host_track.host_ms),
        ("solve_level_only", sum_solve - sum_phased_solve),
        ("unattributed", unattributed),
    ];
    put("core.unattributed_share", share(unattributed, sum_wall), "ratio");
    lines.push(format!(
        "reconciliation per cycle: job wall {sum_wall:.1} ms = engine {:.1} + solve {sum_solve:.1}; phased solve {sum_phased_solve:.1} = phases {phases_total:.1} + unattributed {unattributed:.1}",
        sum_wall - sum_solve
    ));
    lines.push(format!(
        "shares of job wall: {}",
        parts
            .iter()
            .map(|(n, v)| format!("{n} {:.1}%", 100.0 * share(*v, sum_wall)))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    lines.push(format!(
        "phase-replay span self time (allocation, best tracking, loop): {phase_self_ms:.1} ms = {:.1}% of job wall",
        100.0 * share(phase_self_ms, sum_wall)
    ));
    let (dominant, dom_ms) = if kind == WorkloadKind::CpuBatch {
        ("engine+cpu_colonies", parts[0].1 + parts[5].1)
    } else {
        parts.iter().copied().fold(("none", f64::MIN), |a, b| if b.1 > a.1 { b } else { a })
    };
    lines.push(format!(
        "dominant layer: predicted {}, measured {dominant} at {:.1}% of job wall",
        kind.predicted_dominant(),
        100.0 * share(dom_ms, sum_wall)
    ));

    // --- simt: host ns per warp instruction, exec speed-up, counts.
    for (name, p) in
        [("construct", &construct), ("pheromone", &pheromone), ("local_search", &local_search)]
    {
        put(&format!("simt.host_ns_per_warp_inst.{name}"), p.ns_per_warp_inst(), "ns");
    }
    put(
        "simt.exec2_speedup.construct",
        exec2_speedup(rec, setup, &tour_combos, &replayer, &mut problems),
        "ratio",
    );
    for (name, p) in
        [("construct", &construct), ("pheromone", &pheromone), ("local_search", &local_search)]
    {
        put(&format!("simt.dram_bytes.{name}"), p.dram_bytes, "bytes");
    }
    put("localsearch.rounds", rounds as f64, "count");
    put("localsearch.moves_per_round", share(moves as f64, rounds as f64), "ratio");
    for f in crate::catalog::FAMILIES {
        let (count, ms) = launches.remove(*f).unwrap_or_default();
        put(&format!("simt.launches.{f}"), count as f64, "count");
        put(&format!("simt.modeled_ms.{f}"), ms, "ms");
    }
    if !launches.is_empty() {
        lines.push(format!(
            "families outside the catalogue: {:?}",
            launches.keys().collect::<Vec<_>>()
        ));
    }

    for (name, spans, requests, total, self_ms) in rec.summary() {
        lines.push(format!(
            "span {name:<20} {spans:>5} spans over {requests:>3} requests: {total:>10.1} ms, self {self_ms:>10.1} ms"
        ));
    }

    // --- tracing overhead: the same loop with spans on and off.
    let jps = |r: &LoopResult| r.jobs_per_s(true);
    let p50 = |r: &LoopResult| stats::percentile(&r.walls(true), 0.5).unwrap_or(f64::NAN);
    lines.push(format!(
        "tracing overhead: jobs_per_s {:.3} untraced vs {:.3} traced ({:+.1}%); job_wall_ms.p50 {:.3} vs {:.3} ({:+.1}%)",
        jps(untraced),
        jps(traced),
        100.0 * (jps(traced) / jps(untraced) - 1.0),
        p50(untraced),
        p50(traced),
        100.0 * (p50(traced) / p50(untraced) - 1.0),
    ));
    Traced { metrics, lines, problems }
}

/// `run_tour_threads` host time at 1 thread over host time at 2 threads,
/// summed over the workload's distinct (instance, device, strategy)
/// constructions, median of alternating rounds. 0 without GPU jobs.
fn exec2_speedup(
    rec: &mut Recorder,
    setup: &Setup,
    combos: &[(usize, DeviceSpec, TourStrategy, AcoParams)],
    replayer: &Replayer,
    problems: &mut Vec<String>,
) -> f64 {
    let mut distinct: Vec<&(usize, DeviceSpec, TourStrategy, AcoParams)> = Vec::new();
    for c in combos {
        if !distinct.iter().any(|d| d.0 == c.0 && d.1.name == c.1.name && d.2 == c.2) {
            distinct.push(c);
        }
    }
    if distinct.is_empty() {
        return 0.0;
    }
    let mut colonies: Vec<(GlobalMem, ColonyBuffers)> = distinct
        .iter()
        .map(|(i, _, _, params)| {
            let inst = &setup.instances[*i];
            let art = replayer.cache.artifacts(inst, params.nn_size);
            let mut gm = GlobalMem::new();
            let bufs =
                ColonyBuffers::allocate_with_artifacts(&mut gm, inst, params, &art.nn, art.c_nn);
            (gm, bufs)
        })
        .collect();
    let mut ratios = Vec::new();
    for round in 0..EXEC_ROUNDS {
        let mut host = [0.0f64; 2];
        for order in 0..2 {
            // Alternate which thread count goes first each round.
            let threads = if (round + order) % 2 == 0 { 1 } else { 2 };
            let t = Instant::now();
            let span = rec.start("exec_threads", threads as u64, None);
            for ((_, dev, tour, params), (gm, bufs)) in distinct.iter().zip(colonies.iter_mut()) {
                if let Err(e) = run_tour_threads(
                    dev,
                    gm,
                    *bufs,
                    *tour,
                    params.alpha,
                    params.beta,
                    params.seed,
                    0,
                    SimMode::Full,
                    threads,
                ) {
                    problems.push(format!("exec speed-up: {e}"));
                    return 0.0;
                }
            }
            rec.end(span);
            host[threads - 1] += ms_since(t);
        }
        ratios.push(host[0] / host[1]);
    }
    stats::median(&ratios).unwrap_or(0.0)
}

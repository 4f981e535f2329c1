//! Set-up and the closed loop that drives the engine through its public
//! API, plus the validity and determinism checks on what comes back.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use aco_engine::{
    Backend, Engine, EngineError, JobOutcome, JobTimeline, LocalSearch, LsScope, SolveReport,
    SolveRequest,
};
use aco_tsp::TspInstance;

use crate::calib;
use crate::workloads::{self, JobSpec, WorkloadKind};

/// Fewest jobs one measured window completes: p90 needs ten samples
/// beyond it.
pub const MIN_JOBS: usize = 100;
/// Hard stop for one measured window, whatever `MIN_JOBS` says.
pub const MAX_WINDOW: Duration = Duration::from_secs(60);
/// Client `c` starts its `r`-th cycle `r * c * CYCLE_SHIFT` jobs into its
/// share. Clients sharing a worker wait behind each other's jobs, and
/// which job a job waits behind is set by how far one client runs ahead
/// of the other; without the shift that lag settles wherever start-up
/// timing leaves it, and `cpu_batch`'s p50 jumped by 20% between runs.
/// The shift walks the pairing through the share within every run.
const CYCLE_SHIFT: usize = 7;

/// A built workload: its inputs and an engine whose caches are warm.
pub struct Setup {
    pub instances: Vec<Arc<TspInstance>>,
    pub jobs: Vec<JobSpec>,
    pub engine: Engine,
    pub seconds: f64,
}

/// Generate the instances, start the engine, and warm its artifact cache
/// and an `auto` decision for every instance, with zero-iteration `Auto`
/// jobs.
pub fn setup(kind: WorkloadKind, seed: u64) -> Result<Setup, String> {
    let t0 = Instant::now();
    let instances = workloads::instances(kind, seed);
    let jobs = workloads::jobs(kind, seed);
    let engine = Engine::new(kind.engine_config());
    for (instance, params, ls, scope) in configs(&jobs) {
        let req = SolveRequest::new(Arc::clone(&instances[instance]), params)
            .backend(Backend::Auto)
            .iterations(0)
            .local_search(ls)
            .local_search_scope(scope);
        match engine.submit(req).wait() {
            Err(EngineError::NoSolution) => {}
            other => {
                let name = instances[instance].name();
                return Err(format!("warm-up on {name} returned {other:?}"));
            }
        }
    }
    Ok(Setup { instances, jobs, engine, seconds: t0.elapsed().as_secs_f64() })
}

/// One job as the loop saw it.
#[derive(Debug)]
pub struct Completed {
    /// Index into the cycle.
    pub job: usize,
    /// Window seconds at submit.
    pub start_s: f64,
    /// Submit → result, host ms.
    pub wall_ms: f64,
    pub result: Result<SolveReport, EngineError>,
    /// The engine's span timeline (kept for the first cycle, and for
    /// every job of a traced loop).
    pub timeline: Option<JobTimeline>,
}

pub struct LoopResult {
    pub completed: Vec<Completed>,
    pub elapsed_s: f64,
    /// Per client: its share of the cycle (jobs) and the window seconds at
    /// which each of its whole cycles started and ended.
    pub cycles: Vec<(usize, Vec<(f64, f64)>)>,
    /// Host-speed reference samples taken in the window (see
    /// [`calib::Ticker`]).
    pub speed: Vec<(f64, f64)>,
}

impl LoopResult {
    /// The factor that takes a host time measured over `[from, to]` to
    /// the nominal reference speed (1 without samples).
    pub fn speed_factor(&self, from: f64, to: f64) -> f64 {
        calib::local_rate(&self.speed, from, to).map_or(1.0, |r| r / calib::NOMINAL_RATE)
    }

    /// Every job's wall ms, raw or at the nominal host speed; a failed job
    /// misses every latency limit.
    pub fn walls(&self, nominal: bool) -> Vec<f64> {
        self.completed
            .iter()
            .map(|c| match (&c.result, nominal) {
                (Err(_), _) => f64::MAX,
                (Ok(_), false) => c.wall_ms,
                (Ok(_), true) => {
                    c.wall_ms * self.speed_factor(c.start_s, c.start_s + c.wall_ms / 1e3)
                }
            })
            .collect()
    }

    /// Completed jobs per second: each client's share of the cycle over
    /// its median cycle time, summed over clients, raw or at the nominal
    /// host speed. A burst of outside interference slows a few cycles but
    /// moves the medians little.
    pub fn jobs_per_s(&self, nominal: bool) -> f64 {
        let ok = self.completed.iter().filter(|c| c.result.is_ok()).count();
        let share_ok = ok as f64 / self.completed.len().max(1) as f64;
        let rate: f64 = self
            .cycles
            .iter()
            .filter_map(|(jobs, spans)| {
                let times: Vec<f64> = spans
                    .iter()
                    .map(|&(a, b)| (b - a) * if nominal { self.speed_factor(a, b) } else { 1.0 })
                    .collect();
                crate::stats::median(&times).filter(|t| *t > 0.0).map(|t| *jobs as f64 / t)
            })
            .sum();
        share_ok * rate
    }

    /// Whole client cycles run.
    pub fn cycle_count(&self) -> usize {
        self.cycles.iter().map(|(_, times)| times.len()).sum()
    }
}

/// Run `clients` closed-loop clients, client `c` over whole cycles of
/// jobs `c, c + clients, ...` (rotated by [`CYCLE_SHIFT`]), until at least `seconds` have passed and at
/// least `min_jobs` jobs completed. `keep_timelines` keeps every job's
/// timeline, not only the first cycle's. Between jobs the clients sample
/// the host-speed reference.
pub fn closed_loop(
    setup: &Setup,
    clients: usize,
    seconds: f64,
    min_jobs: usize,
    keep_timelines: bool,
) -> LoopResult {
    let n = setup.jobs.len();
    let done = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let ticker = calib::Ticker::new(start);
    // Per client: its jobs, its share's length and its cycles' spans.
    type ClientRun = (Vec<Completed>, usize, Vec<(f64, f64)>);
    let per_client: Vec<ClientRun> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                let (done, stop, ticker) = (&done, &stop, &ticker);
                s.spawn(move || {
                    let share: Vec<usize> = (c..n).step_by(clients).collect();
                    let mut out = Vec::new();
                    let mut cycles = Vec::new();
                    loop {
                        let cycle_start = start.elapsed().as_secs_f64();
                        let offset = cycles.len() * CYCLE_SHIFT * c;
                        for k in 0..share.len() {
                            let job = share[(k + offset) % share.len()];
                            ticker.tick();
                            let req = setup.jobs[job].request(&setup.instances);
                            let t = Instant::now();
                            let start_s = t.duration_since(start).as_secs_f64();
                            let handle = setup.engine.submit(req);
                            let result = handle.wait();
                            let wall_ms = t.elapsed().as_secs_f64() * 1e3;
                            // Each job belongs to one client, so this
                            // client's first cycle is the job's first run.
                            let keep = keep_timelines || cycles.is_empty();
                            let timeline = if keep { handle.timeline() } else { None };
                            out.push(Completed { job, start_s, wall_ms, result, timeline });
                            done.fetch_add(1, Ordering::Relaxed);
                        }
                        cycles.push((cycle_start, start.elapsed().as_secs_f64()));
                        let elapsed = start.elapsed();
                        if elapsed >= MAX_WINDOW
                            || (elapsed.as_secs_f64() >= seconds
                                && done.load(Ordering::Relaxed) >= min_jobs)
                        {
                            stop.store(true, Ordering::Relaxed);
                        }
                        if stop.load(Ordering::Relaxed) {
                            return (out, share.len(), cycles);
                        }
                    }
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("client thread")).collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let mut completed = Vec::new();
    let mut cycles = Vec::new();
    for (jobs, share, times) in per_client {
        completed.extend(jobs);
        cycles.push((share, times));
    }
    LoopResult { completed, elapsed_s, cycles, speed: ticker.into_samples() }
}

/// The first successful report of each cycle job (the cycle's distinct
/// results), with its timeline.
pub fn first_reports(
    run: &LoopResult,
    n_jobs: usize,
) -> Vec<Option<(&SolveReport, Option<&JobTimeline>)>> {
    let mut out: Vec<Option<(&SolveReport, Option<&JobTimeline>)>> = vec![None; n_jobs];
    for c in &run.completed {
        if let (Ok(rep), None) = (&c.result, &out[c.job]) {
            out[c.job] = Some((rep, c.timeline.as_ref()));
        }
    }
    out
}

/// Everything wrong with a loop's results: failures, invalid tours,
/// lengths that do not recompute, and repeats of one job that differ.
pub fn check(setup: &Setup, run: &LoopResult) -> Vec<String> {
    let mut problems = Vec::new();
    let mut first: BTreeMap<usize, &SolveReport> = BTreeMap::new();
    for c in &run.completed {
        let spec = &setup.jobs[c.job];
        let inst = &setup.instances[spec.instance];
        let rep = match &c.result {
            Ok(rep) => rep,
            Err(e) => {
                problems.push(format!("{}: failed: {e}", spec.label));
                continue;
            }
        };
        if let Some(p) = validate(spec, inst, rep) {
            problems.push(format!("{}: {p}", spec.label));
        }
        match first.get(&c.job) {
            None => {
                first.insert(c.job, rep);
            }
            Some(reference) => {
                if let Some(diff) = same_result(reference, rep) {
                    problems.push(format!("{}: repeat differs: {diff}", spec.label));
                }
            }
        }
    }
    if first.len() != setup.jobs.len() {
        problems.push(format!(
            "only {} of {} cycle jobs completed successfully",
            first.len(),
            setup.jobs.len()
        ));
    }
    problems
}

/// Why `rep` is not a valid answer to `spec` on `inst`, if it is not.
pub fn validate(spec: &JobSpec, inst: &TspInstance, rep: &SolveReport) -> Option<String> {
    let tour = &rep.best_tour;
    if tour.n() != inst.n() || !tour.is_valid() {
        return Some(format!("best tour is not a permutation of {} cities", inst.n()));
    }
    let len = tour.length(inst.matrix());
    if len != rep.best_len {
        return Some(format!("best_len {} but the tour measures {len}", rep.best_len));
    }
    if rep.outcome != JobOutcome::Completed || rep.iterations != spec.iterations {
        return Some(format!("outcome {:?} after {} iterations", rep.outcome, rep.iterations));
    }
    if !(rep.modeled_ms.is_finite() && rep.modeled_ms >= 0.0) {
        return Some(format!("modeled_ms {}", rep.modeled_ms));
    }
    if spec.backend != Backend::Auto && rep.backend != spec.backend {
        return Some(format!("ran {} instead of {}", rep.backend.label(), spec.backend.label()));
    }
    None
}

/// How two reports of the same job differ, bit for bit, if they do.
pub fn same_result(a: &SolveReport, b: &SolveReport) -> Option<String> {
    if a.best_len != b.best_len || a.best_tour != b.best_tour {
        return Some(format!("best {} vs {}", a.best_len, b.best_len));
    }
    if a.modeled_ms.to_bits() != b.modeled_ms.to_bits() {
        return Some(format!("modeled_ms {:?} vs {:?}", a.modeled_ms, b.modeled_ms));
    }
    if a.iterations != b.iterations
        || a.backend != b.backend
        || a.local_search_improvement != b.local_search_improvement
        || a.restarts != b.restarts
        || a.outcome != b.outcome
    {
        return Some(format!(
            "{} {} it / {} {} it",
            a.backend.label(),
            a.iterations,
            b.backend.label(),
            b.iterations
        ));
    }
    None
}

/// One (instance, params, local search, scope) configuration per
/// instance — that of the first job on it. The set-up warms the `auto`
/// decision for each, so every instance has one.
pub fn configs(jobs: &[JobSpec]) -> Vec<(usize, aco_core::AcoParams, LocalSearch, LsScope)> {
    let mut out: Vec<(usize, aco_core::AcoParams, LocalSearch, LsScope)> = Vec::new();
    for job in jobs {
        if !out.iter().any(|c| c.0 == job.instance) {
            out.push((job.instance, job.params.clone(), job.local_search, job.scope));
        }
    }
    out
}

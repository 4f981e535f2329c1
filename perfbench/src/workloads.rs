//! The four workloads: who submits, on what engine, which jobs.
//!
//! Every workload is a closed loop — each client waits for its reply
//! before submitting the next job — over a fixed *cycle* of jobs. Each
//! client runs whole cycles of its share of the list (client `c` of `k`
//! runs jobs `c, c + k, c + 2k, ...`, and every share holds every cost
//! class), so the job mix of a run is exact and its percentiles
//! do not depend on where the clock stopped. Instances come from the
//! seed; the engine config is the default except for `workers` and the
//! device profiles' `exec_threads`.

use std::sync::Arc;

use aco_core::{AcoParams, AcsParams, MmasParams, PheromoneStrategy, TourPolicy, TourStrategy};
use aco_engine::{
    default_devices, Backend, EngineConfig, GpuDevice, LocalSearch, LsScope, SolveRequest,
};
use aco_tsp::{EdgeWeightType, Point, TspInstance};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    Construct,
    PheromoneUpdate,
    LocalSearch,
    CpuBatch,
}

impl WorkloadKind {
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::Construct,
        WorkloadKind::PheromoneUpdate,
        WorkloadKind::LocalSearch,
        WorkloadKind::CpuBatch,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Construct => "construct",
            WorkloadKind::PheromoneUpdate => "pheromone_update",
            WorkloadKind::LocalSearch => "local_search",
            WorkloadKind::CpuBatch => "cpu_batch",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Concurrent closed-loop clients.
    pub fn clients(self) -> usize {
        match self {
            WorkloadKind::LocalSearch | WorkloadKind::CpuBatch => 2,
            _ => 1,
        }
    }

    /// Engine worker threads.
    pub fn workers(self) -> usize {
        match self {
            WorkloadKind::LocalSearch => 2,
            _ => 1,
        }
    }

    /// Host threads each simulated launch may use (the device profiles'
    /// `exec_threads`). One everywhere: on a 2-vCPU VM a second exec
    /// thread made `construct` 0-25% faster depending on how readily the
    /// host ran the second vCPU, which no host-speed reference tracks, and
    /// doubled its run-to-run spread. The traced run's
    /// `simt.exec2_speedup.construct` times 2 exec threads against 1.
    pub fn exec_threads(self) -> usize {
        1
    }

    /// The layer this workload is built to load, as the reconciliation
    /// of the traced run should show it.
    pub fn predicted_dominant(self) -> &'static str {
        match self {
            WorkloadKind::Construct => "construct",
            WorkloadKind::PheromoneUpdate => "pheromone",
            WorkloadKind::LocalSearch => "local_search",
            WorkloadKind::CpuBatch => "engine+cpu_colonies",
        }
    }

    pub fn engine_config(self) -> EngineConfig {
        let devices = default_devices()
            .into_iter()
            .map(|profile| profile.exec_threads(self.exec_threads()))
            .collect();
        EngineConfig { workers: self.workers(), devices, ..EngineConfig::default() }
    }
}

/// One job of a workload's cycle.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Stable label (also the golden table's key).
    pub label: String,
    /// Index into the workload's instances.
    pub instance: usize,
    pub backend: Backend,
    pub params: AcoParams,
    pub local_search: LocalSearch,
    pub scope: LsScope,
    pub iterations: usize,
    pub seed: u64,
}

impl JobSpec {
    pub fn request(&self, instances: &[Arc<TspInstance>]) -> SolveRequest {
        SolveRequest::new(Arc::clone(&instances[self.instance]), self.params.clone())
            .backend(self.backend.clone())
            .iterations(self.iterations)
            .seed(self.seed)
            .local_search(self.local_search)
            .local_search_scope(self.scope)
    }
}

/// SplitMix64: derives independent sub-seeds from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// City counts of the workload's instances. Job cost grows with `n` and
/// with the configuration, so a cycle falls into cost classes. The
/// instance counts give cycles of 85, 35 and 105 jobs, where p50 and p90
/// fall half-way inside one job's samples (see the job lists below);
/// `cpu_batch`'s costs have no gaps, so its 80 need no such care. Many
/// instances per class average out what one instance's shape adds to or
/// takes from the work, which is most of the seed-to-seed spread.
fn sizes(kind: WorkloadKind) -> &'static [usize] {
    match kind {
        WorkloadKind::Construct => &[48, 64, 48, 64, 48],
        WorkloadKind::PheromoneUpdate => &[48; 7],
        WorkloadKind::LocalSearch => &[20; 21],
        WorkloadKind::CpuBatch => &[48, 100, 150, 200, 400, 48, 100, 150, 200, 400],
    }
}

/// The workload's instances for `seed`: jittered lattices in a 1000 ×
/// 1000 square (EUC_2D). Every city moves with the seed, but instance
/// shape — and with it how much work the data-dependent kernels and
/// local searches do — varies far less between seeds than for uniform
/// random points, so seed-to-seed differences measure the program rather
/// than the luck of the draw.
pub fn instances(kind: WorkloadKind, seed: u64) -> Vec<Arc<TspInstance>> {
    sizes(kind)
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            Arc::new(lattice(&format!("{}-{i}-n{n}", kind.name()), n, mix(seed, 1 + i as u64)))
        })
        .collect()
}

/// `n` cities on the first `n` cells of a square lattice, each moved by
/// up to 35% of the spacing in x and y.
pub fn lattice(name: &str, n: usize, seed: u64) -> TspInstance {
    let cols = (n as f64).sqrt().ceil() as usize;
    let spacing = 1000.0 / cols as f64;
    let mut state = seed;
    let mut jitter = || {
        state = mix(state, 0x5EED);
        // 53 random bits → [-0.35, 0.35).
        ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 0.7
    };
    let points = (0..n)
        .map(|k| {
            let (r, c) = ((k / cols) as f64, (k % cols) as f64);
            Point::new((c + 0.5 + jitter()) * spacing, (r + 0.5 + jitter()) * spacing)
        })
        .collect();
    TspInstance::from_points(name, EdgeWeightType::Euc2d, points).expect("n >= 2 distinct cities")
}

/// One cycle of the workload's jobs over `num_instances` instances.
pub fn jobs(kind: WorkloadKind, seed: u64) -> Vec<JobSpec> {
    let n_inst = sizes(kind).len();
    let mut out = Vec::new();
    let mut push = |label: String,
                    instance: usize,
                    backend: Backend,
                    params: &AcoParams,
                    ls: LocalSearch,
                    scope: LsScope,
                    iterations: usize| {
        let index = out.len() as u64;
        out.push(JobSpec {
            label: format!("i{instance}/{label}"),
            instance,
            backend,
            params: params.clone(),
            local_search: ls,
            scope,
            iterations,
            seed: mix(seed, 1000 + index),
        });
    };
    match kind {
        WorkloadKind::Construct => {
            // Table II rows on both devices, plus auto jobs: 17 jobs per
            // instance, so five instances put p50 and p90 at ranks 42.5
            // and 76.5 of the cycle.
            let params = AcoParams::default();
            for i in 0..n_inst {
                for device in GpuDevice::ALL {
                    for tour in TourStrategy::ALL {
                        let backend = Backend::Gpu {
                            device,
                            tour,
                            pheromone: PheromoneStrategy::AtomicShared,
                        };
                        push(
                            backend.label(),
                            i,
                            backend,
                            &params,
                            LocalSearch::None,
                            LsScope::IterationBest,
                            1,
                        );
                    }
                }
                push(
                    "auto".into(),
                    i,
                    Backend::Auto,
                    &params,
                    LocalSearch::None,
                    LsScope::IterationBest,
                    1,
                );
            }
        }
        WorkloadKind::PheromoneUpdate => {
            // Tables III/IV rows, cheap construction. Each (instance, row)
            // runs on one device, alternating, so every row runs on both
            // devices and a cycle holds 35 jobs: p50 and p90 fall at
            // ranks 17.5 and 31.5 of the cycle, inside a job's samples.
            // At a whole-number rank a percentile is the largest sample of
            // one job, on the edge to the next, and jumps from run to run.
            let params = AcoParams::default();
            for i in 0..n_inst {
                for (s, pheromone) in PheromoneStrategy::ALL.into_iter().enumerate() {
                    let device = GpuDevice::ALL[(i + s) % 2];
                    let backend =
                        Backend::Gpu { device, tour: TourStrategy::NNListSharedTex, pheromone };
                    push(
                        backend.label(),
                        i,
                        backend,
                        &params,
                        LocalSearch::None,
                        LsScope::IterationBest,
                        1,
                    );
                }
            }
        }
        WorkloadKind::LocalSearch => {
            // Both device 2-opt families and or-opt on GPU AS, and ACS
            // with 2-opt on the iteration best and on all ants: five cost
            // classes of 11 jobs, so p50 and p90 fall at ranks 27.5 and
            // 49.5 of the cycle, inside a job's samples. Job `j` runs on
            // device `j % 2`, so job parity picks the device, each client
            // owns one device, and every class runs on both.
            let params = AcoParams::default().ants(8);
            for (class, (label, acs, ls, scope)) in [
                ("2optnn-best", false, LocalSearch::TwoOptNn, LsScope::IterationBest),
                ("acs-2optnn-best", true, LocalSearch::TwoOptNn, LsScope::IterationBest),
                ("2optnn-all", false, LocalSearch::TwoOptNn, LsScope::AllAnts),
                ("acs-2optnn-all", true, LocalSearch::TwoOptNn, LsScope::AllAnts),
                ("oropt-all", false, LocalSearch::OrOpt, LsScope::AllAnts),
            ]
            .into_iter()
            .enumerate()
            {
                for i in 0..n_inst {
                    let device = GpuDevice::ALL[(class * n_inst + i) % 2];
                    let backend = if acs {
                        Backend::GpuAcs { device, acs: AcsParams::default() }
                    } else {
                        Backend::Gpu {
                            device,
                            tour: TourStrategy::NNListSharedTex,
                            pheromone: PheromoneStrategy::AtomicShared,
                        }
                    };
                    push(format!("{}/{label}", backend.label()), i, backend, &params, ls, scope, 1);
                }
            }
        }
        WorkloadKind::CpuBatch => {
            // Short CPU runs, with and without CPU 2-opt, sharing cache
            // entries per instance.
            let params = AcoParams::default().ants(16);
            let policy = TourPolicy::NearestNeighborList;
            let backends = [
                Backend::CpuSequential { policy },
                Backend::CpuParallel { policy, threads: 2 },
                Backend::CpuAcs(AcsParams::default()),
                Backend::CpuMmas(MmasParams::default()),
            ];
            // Instances `s` and `s + 5` have the same size and sit next to
            // each other, so each client's half has every job class.
            for size in 0..n_inst / 2 {
                for backend in &backends {
                    for (tag, ls) in [("", LocalSearch::None), ("+2optnn", LocalSearch::TwoOptNn)] {
                        for i in [size, size + n_inst / 2] {
                            push(
                                format!("{}{tag}", backend.label()),
                                i,
                                backend.clone(),
                                &params,
                                ls,
                                LsScope::IterationBest,
                                2,
                            );
                        }
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in WorkloadKind::ALL {
            assert_eq!(WorkloadKind::from_name(w.name()), Some(w));
        }
        assert_eq!(WorkloadKind::from_name("nope"), None);
    }

    #[test]
    fn inputs_come_from_the_seed() {
        for w in WorkloadKind::ALL {
            let a = instances(w, 5);
            let b = instances(w, 5);
            let c = instances(w, 6);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.matrix().as_flat(), y.matrix().as_flat());
            }
            assert_ne!(a[0].matrix().as_flat(), c[0].matrix().as_flat());
            let labels: Vec<_> = jobs(w, 5).into_iter().map(|j| j.label).collect();
            let mut unique = labels.clone();
            unique.sort();
            unique.dedup();
            assert_eq!(unique.len(), labels.len(), "{} labels are unique", w.name());
        }
    }

    #[test]
    fn no_workload_uses_more_than_two_threads() {
        for w in WorkloadKind::ALL {
            assert!(w.workers() * w.exec_threads() <= 2);
            assert!(w.clients() <= 2);
        }
    }
}

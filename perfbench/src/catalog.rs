//! Every metric the benchmark reports, with its unit, its direction and —
//! for per-layer metrics — the end-to-end metric it should move.
//! `BENCHMARK.json` lists the same names (a test keeps the two in step).

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// End-to-end: what it measures. Per layer: which end-to-end metric,
    /// on which workload, it should move.
    pub note: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    note: &'static str,
) -> Metric {
    Metric { name, unit, better, note }
}

/// End-to-end metrics, reported by every workload with tracing off. The
/// host times among them are scaled to the nominal host speed (see
/// [`crate::calib`]).
pub const END_TO_END: &[Metric] = &[
    m("jobs_per_s", "1/s", "higher", "completed jobs per host second (median client cycle)"),
    m("job_wall_ms.p50", "ms", "lower", "host ms from submit to result, median"),
    m("job_wall_ms.p90", "ms", "lower", "host ms from submit to result, 90th percentile"),
    m("ok_share", "ratio", "higher", "jobs completed correctly / jobs attempted (1 - fail share)"),
    m("modeled_ms_per_iter", "ms", "lower", "mean SolveReport.modeled_ms / iterations (exact)"),
    m("tour_len_ratio", "ratio", "lower", "mean best_len / greedy NN-tour length (exact)"),
    m("setup_s", "s", "lower", "instances, Engine::new, cache and auto warm-up (median of 3-9)"),
    m("peak_rss_mb", "MiB", "lower", "VmHWM of the process over the measured window"),
];

/// Kernel families the workloads launch, in pipeline order.
pub const FAMILIES: &[&str] = &[
    "choice_info",
    "tour_task",
    "tour_data_parallel",
    "pheromone_evaporate",
    "pheromone_deposit_atomic",
    "pheromone_scatter_gather",
    "pheromone_scatter_gather_tiled",
    "pheromone_reduction",
    "two_opt_pos",
    "two_opt_propose",
    "two_opt_select",
    "two_opt_apply",
    "two_opt_pos_all",
    "two_opt_propose_all",
    "two_opt_select_all",
    "two_opt_apply_all",
    "or_opt_pos",
    "or_opt_propose",
    "or_opt_select",
    "or_opt_apply",
    "acs_tour",
    "acs_global_update",
];

const CONSTRUCT_MOVES: &str = "jobs_per_s and job_wall_ms.p50/p90 on construct; none elsewhere";
const PHEROMONE_MOVES: &str =
    "jobs_per_s and job_wall_ms.p50/p90 on pheromone_update; none elsewhere";
const LS_MOVES: &str = "jobs_per_s and job_wall_ms.p50/p90 on local_search; none elsewhere";
const SETUP_MOVES: &str = "setup_s on every workload";
const EXACT: &str = "exact count: a gate, not a speed-up";

/// Per-layer metrics, reported by every workload's traced run (0 where
/// the workload gives the layer no work).
pub const PER_LAYER: &[Metric] = &[
    m("engine.queue_wait_ms.p50", "ms", "lower", "job_wall_ms.p90 on cpu_batch"),
    m("engine.queue_wait_ms.p90", "ms", "lower", "job_wall_ms.p90 on cpu_batch"),
    m(
        "engine.overhead_ms.p50",
        "ms",
        "lower",
        "jobs_per_s on cpu_batch; no visible effect on GPU workloads",
    ),
    m(
        "engine.overhead_share",
        "ratio",
        "lower",
        "jobs_per_s on cpu_batch; no visible effect on GPU workloads",
    ),
    m("engine.cache.artifact_hit_ratio", "ratio", "higher", SETUP_MOVES),
    m("engine.auto.resolve_ms", "ms", "lower", SETUP_MOVES),
    m("tsp.artifacts_ms", "ms", "lower", SETUP_MOVES),
    m(
        "core.solve.host_ms",
        "ms",
        "lower",
        "jobs_per_s on every workload; the CPU colonies on cpu_batch",
    ),
    m("core.construct.host_ms", "ms", "lower", CONSTRUCT_MOVES),
    m("core.construct.modeled_ms", "ms", "lower", "modeled_ms_per_iter on construct"),
    m("core.pheromone.host_ms", "ms", "lower", PHEROMONE_MOVES),
    m("core.pheromone.modeled_ms", "ms", "lower", "modeled_ms_per_iter on pheromone_update"),
    m("core.local_search.host_ms", "ms", "lower", LS_MOVES),
    m("core.local_search.modeled_ms", "ms", "lower", "modeled_ms_per_iter on local_search"),
    m("core.host_track_ms", "ms", "lower", "jobs_per_s on the three GPU workloads"),
    m("core.unattributed_share", "ratio", "lower", "share of job wall no layer span covers"),
    m(
        "simt.host_ns_per_warp_inst.construct",
        "ns",
        "lower",
        "jobs_per_s on all GPU workloads, by instruction mix",
    ),
    m(
        "simt.host_ns_per_warp_inst.pheromone",
        "ns",
        "lower",
        "jobs_per_s on all GPU workloads, by instruction mix",
    ),
    m(
        "simt.host_ns_per_warp_inst.local_search",
        "ns",
        "lower",
        "jobs_per_s on all GPU workloads, by instruction mix",
    ),
    m(
        "simt.exec2_speedup.construct",
        "ratio",
        "higher",
        "no e2e metric while every workload runs 1 exec thread (see README)",
    ),
    m("simt.dram_bytes.construct", "bytes", "lower", EXACT),
    m("simt.dram_bytes.pheromone", "bytes", "lower", EXACT),
    m("simt.dram_bytes.local_search", "bytes", "lower", EXACT),
    m("localsearch.rounds", "count", "lower", EXACT),
    m("localsearch.moves_per_round", "ratio", "higher", EXACT),
];

/// `simt.launches.<family>` and `simt.modeled_ms.<family>` names.
#[cfg(test)]
pub fn family_metrics() -> Vec<(String, &'static str)> {
    FAMILIES
        .iter()
        .flat_map(|f| {
            [(format!("simt.launches.{f}"), "count"), (format!("simt.modeled_ms.{f}"), "ms")]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn names(v: &Value, key: &str) -> Vec<(String, String, String)> {
        v.get(key)
            .and_then(Value::as_array)
            .expect(key)
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
            .collect();
        assert_eq!(names(&doc, "end_to_end"), e2e);
        let mut layer: Vec<_> = PER_LAYER
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
            .collect();
        layer.extend(
            family_metrics().into_iter().map(|(n, u)| (n, u.to_string(), "lower".to_string())),
        );
        assert_eq!(names(&doc, "per_layer"), layer);
        let workloads: Vec<_> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect();
        let ours: Vec<_> =
            crate::workloads::WorkloadKind::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
    }
}

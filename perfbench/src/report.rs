//! What one benchmark run reports, and the catalogue of per-layer metrics.

use std::collections::BTreeMap;

use fetchmech_repro::experiments::LabCacheStats;
use fetchmech_repro::SimResult;

use crate::spans::Recorder;

/// Every per-layer metric, with its unit, in the order a traced run prints
/// them. A layer a workload never reaches reads 0 on that workload (for
/// example, `paper-grid` spends no time in the store).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.stream_gen_s", "s"),
    ("workloads.trace_gen_s", "s"),
    ("workloads.stream_bytes", "bytes"),
    ("workloads.trace_bytes", "bytes"),
    ("compiler.profile_s", "s"),
    ("compiler.reorder_s", "s"),
    ("compiler.layout_s", "s"),
    ("sim.simulate_s", "s"),
    ("sim.simulate_trace_s", "s"),
    ("unit.eir_s", "s"),
    ("pipeline.core_s", "s"),
    ("sim.minst_per_s", "Minst/s"),
    ("sim.ns_per_cycle", "ns"),
    ("sim.cells", "count"),
    ("sim.cycles", "count"),
    ("sim.retired", "count"),
    ("unit.packets", "count"),
    ("unit.icache_accesses", "count"),
    ("unit.icache_misses", "count"),
    ("unit.btb_lookups", "count"),
    ("unit.mispredicts", "count"),
    ("unit.stall_cycles", "count"),
    ("experiments.stream_builds", "count"),
    ("experiments.stream_hits", "count"),
    ("experiments.trace_generations", "count"),
    ("experiments.layout_builds", "count"),
    ("experiments.profile_collections", "count"),
    ("api.parse_s", "s"),
    ("api.render_s", "s"),
    ("store.lookup_s", "s"),
    ("store.persist_s", "s"),
    ("store.open_s", "s"),
    ("store.persisted", "count"),
    ("store.dropped", "count"),
    ("store.persist_attempts", "count"),
    ("store.wasted_write_ratio", "ratio"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("engine.jobs_enqueued", "count"),
    ("engine.jobs_coalesced", "count"),
    ("engine.jobs_shed", "count"),
    ("engine.jobs_expired", "count"),
    ("serve.handler_mean_ms", "ms"),
    ("serve.hot_handler_mean_ms", "ms"),
    ("serve.replay_service_ms", "ms"),
    ("engine.queue_wait_ms", "ms"),
    ("client.requests", "count"),
    ("client.connect_ms", "ms"),
    ("client.ttfb_ms", "ms"),
    ("trace.replayed_ops", "count"),
    ("trace.spans", "count"),
    ("trace.traced_wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
];

/// The exact work counters of [`PER_LAYER`]: they must repeat exactly
/// between two replays of one seed.
pub const EXACT_COUNTERS: &[&str] = &[
    "workloads.stream_bytes",
    "workloads.trace_bytes",
    "sim.cells",
    "sim.cycles",
    "sim.retired",
    "unit.packets",
    "unit.icache_accesses",
    "unit.icache_misses",
    "unit.btb_lookups",
    "unit.mispredicts",
    "unit.stall_cycles",
    "experiments.stream_builds",
    "experiments.stream_hits",
    "experiments.trace_generations",
    "experiments.layout_builds",
    "experiments.profile_collections",
];

/// Span name → per-layer self-time metric. Span names are the public calls
/// the benchmark wraps.
pub const LAYER_SPANS: &[(&str, &str)] = &[
    ("Lab::stream", "workloads.stream_gen_s"),
    ("Lab::trace", "workloads.trace_gen_s"),
    ("Lab::profile", "compiler.profile_s"),
    ("Lab::reordered", "compiler.reorder_s"),
    ("Lab::layout", "compiler.layout_s"),
    ("simulate(stream)", "sim.simulate_s"),
    ("simulate(trace)", "sim.simulate_trace_s"),
    ("measure_eir", "unit.eir_s"),
    ("api::parse_simulate", "api.parse_s"),
    ("api::sim_result_json", "api.render_s"),
    ("Store::lookup", "store.lookup_s"),
    ("Store::persist", "store.persist_s"),
    ("Store::open", "store.open_s"),
];

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness problems; any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Metric name → (value, unit), printed in insertion order.
    pub metrics: Vec<(String, f64, String)>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    pub fn problem(&mut self, why: impl Into<String>) {
        self.problems.push(why.into());
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Adds every per-layer metric, taking values from `values` (0 where a
    /// layer was not reached).
    pub fn per_layer(&mut self, values: &BTreeMap<&'static str, f64>) {
        for (name, unit) in PER_LAYER {
            let v = values.get(name).copied().unwrap_or(0.0);
            self.metric(name, v, unit);
        }
        for name in values.keys() {
            assert!(
                PER_LAYER.iter().any(|(n, _)| n == name),
                "per-layer metric {name} missing from the catalogue"
            );
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// The result line: one JSON object with exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// Adds the simulator's speed ratios to a per-layer map, with their bases
/// (`sim.retired`, `sim.cycles`, and the two simulate self times) already
/// in it.
pub fn derive_sim_ratios(v: &mut BTreeMap<&'static str, f64>) {
    let sim_s = v.get("sim.simulate_s").copied().unwrap_or(0.0)
        + v.get("sim.simulate_trace_s").copied().unwrap_or(0.0);
    let retired = v.get("sim.retired").copied().unwrap_or(0.0);
    let cycles = v.get("sim.cycles").copied().unwrap_or(0.0);
    if sim_s > 0.0 {
        v.insert("sim.minst_per_s", retired / sim_s / 1e6);
    }
    if cycles > 0.0 {
        v.insert("sim.ns_per_cycle", sim_s / cycles * 1e9);
    }
}

/// Counters and timings from one replay of a workload's inputs.
pub struct Replay {
    pub wall_s: f64,
    pub values: BTreeMap<&'static str, f64>,
    /// Root-span time of each replayed request (serve workloads).
    pub service_s: Vec<f64>,
    /// The span log, when the replay was traced.
    pub rec: Option<Recorder>,
}

pub fn add(v: &mut BTreeMap<&'static str, f64>, key: &'static str, x: u64) {
    *v.entry(key).or_default() += x as f64;
}

/// Sums the exact per-cell work counters of one simulation.
pub fn add_sim_counts(v: &mut BTreeMap<&'static str, f64>, r: &SimResult) {
    add(v, "sim.cells", 1);
    add(v, "sim.cycles", r.cycles);
    add(v, "sim.retired", r.retired);
    add(v, "unit.packets", r.fetch.packets);
    add(v, "unit.icache_accesses", r.icache.accesses);
    add(v, "unit.icache_misses", r.icache.misses);
    add(v, "unit.btb_lookups", r.btb.lookups);
    add(v, "unit.mispredicts", r.fetch.mispredicts);
    add(
        v,
        "unit.stall_cycles",
        r.fetch.miss_stall_cycles + r.fetch.redirect_stall_cycles,
    );
}

/// Adds the lab's exact cache counts.
pub fn add_lab_counts(v: &mut BTreeMap<&'static str, f64>, s: &LabCacheStats) {
    add(v, "experiments.stream_builds", s.stream_builds);
    add(v, "experiments.stream_hits", s.stream_hits);
    add(v, "experiments.trace_generations", s.trace_generations);
    add(v, "experiments.layout_builds", s.layout_builds);
    add(v, "experiments.profile_collections", s.profile_collections);
}

/// Checks that two replays of one seed produced identical exact counters.
pub fn compare_counters(
    out: &mut Outcome,
    a: &BTreeMap<&'static str, f64>,
    b: &BTreeMap<&'static str, f64>,
) {
    for name in EXACT_COUNTERS {
        let (x, y) = (a.get(name).copied(), b.get(name).copied());
        if x != y {
            out.problem(format!(
                "counter {name} differs between replays: {x:?} vs {y:?}"
            ));
        }
    }
}

/// Adds each layer's span self time to `v`.
pub fn add_span_times(v: &mut BTreeMap<&'static str, f64>, rec: &Recorder) {
    let selfs = rec.self_seconds();
    for (span_name, metric) in LAYER_SPANS {
        v.insert(metric, selfs.get(span_name).copied().unwrap_or(0.0));
    }
}

/// Adds the tracing-overhead block: the same inputs replayed with and
/// without spans.
pub fn add_overhead(
    v: &mut BTreeMap<&'static str, f64>,
    rec: &Recorder,
    ops: f64,
    untraced_s: f64,
    traced_s: f64,
) {
    v.insert("trace.replayed_ops", ops);
    v.insert("trace.spans", rec.len() as f64);
    v.insert("trace.untraced_wall_s", untraced_s);
    v.insert("trace.traced_wall_s", traced_s);
    v.insert("trace.overhead_s", traced_s - untraced_s);
}

#[cfg(test)]
mod tests {
    use super::*;
    use fetchmech_repro::json::{parse, Value};

    fn names(bench: &Value, section: &str) -> Vec<(String, String)> {
        let Some(Value::Array(items)) = bench.get(section) else {
            panic!("BENCHMARK.json has no {section}");
        };
        items
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let bench = parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let want: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect();
        assert_eq!(names(&bench, "per_layer"), want);
        let e2e: Vec<String> = names(&bench, "end_to_end")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(
            e2e,
            [
                "setup_s",
                "wall_s",
                "req_per_s",
                "latency_p50_ms",
                "latency_p99_ms",
                "peak_rss_mb",
                "error_rate"
            ]
        );
        for name in EXACT_COUNTERS {
            assert!(PER_LAYER.iter().any(|(n, _)| n == name), "{name}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        out.metric("wall_s", 1.25, "s");
        let line = parse(&out.result_line()).expect("result line is JSON");
        let Value::Object(fields) = &line else {
            panic!("result line is not an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            line.get("metrics")
                .and_then(|m| m.get("wall_s"))
                .and_then(|w| w.get("value")),
            Some(&Value::Num(1.25))
        );
    }
}

//! The run's result: metrics, operation counts, correctness problems and
//! the printed summary. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

/// End-to-end metrics, reported on every workload by an untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("throughput_ops", "ops/s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported on every workload by a traced run.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("markov.transient.sweep_ms", "ms"),
    ("markov.transient.iterations", "count"),
    ("markov.transient.touched_entries", "count"),
    ("markov.transient.entries_per_s", "1/s"),
    ("markov.transient.bytes_moved_computed", "bytes"),
    ("markov.transient.window_deficit", "prob"),
    ("markov.transient.touched_entries_solo_sum", "count"),
    ("markov.foxglynn.weights_ms", "ms"),
    ("markov.foxglynn.right_point", "count"),
    ("markov.pool.cpu_per_wall", "ratio"),
    ("core.discretise.build_ms", "ms"),
    ("core.discretise.states", "count"),
    ("core.discretise.nnz", "count"),
    ("core.sweep.plan_us", "us"),
    ("core.sweep.groups", "count"),
    ("core.sweep.solved", "count"),
    ("core.sweep.iterations_sum", "count"),
    ("core.sweep.naive_ms", "ms"),
    ("core.sweep.share_gain", "ratio"),
    ("core.service.hit_us", "us"),
    ("core.service.miss_ms", "ms"),
    ("core.service.degraded_family_us", "us"),
    ("core.service.degraded_sim_ms", "ms"),
    ("core.service.hit_rate", "ratio"),
    ("core.service.warm_hit_rate", "ratio"),
    ("core.service.joined", "count"),
    ("core.service.evictions", "count"),
    ("core.service.shed", "count"),
    ("core.service.degraded_err_over_bound", "ratio"),
    ("core.scenario.parse_us", "us"),
    ("core.scenario.key_us", "us"),
    ("core.snapshot.load_ms", "ms"),
    ("core.snapshot.bytes", "bytes"),
    ("net.accept_wait_ms", "ms"),
    ("net.http.parse_us", "us"),
    ("net.json.parse_us", "us"),
    ("net.json.encode_us", "us"),
    ("net.quota.admit_ns", "ns"),
    ("net.stats.accepted", "count"),
    ("net.stats.connections_shed", "count"),
    ("net.stats.quota_refused", "count"),
    ("net.stats.rejected_bad_request", "count"),
    ("sim.fast_mc_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.tracing_overhead_frac", "ratio"),
];

/// Correctness problems printed in full; the rest are only counted.
const PRINTED_PROBLEMS: usize = 20;

#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    problems: Vec<String>,
    metrics: Vec<(String, f64)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// A failed operation or violated check.
    pub fn fail(&mut self, problem: impl Into<String>) {
        self.failed += 1;
        self.problems.push(problem.into());
    }

    /// Checks `ok`, failing with `problem` when it does not hold.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.fail(problem());
        }
    }

    /// Prints the problems and the result line. `expected` is the metric
    /// list of this mode; a missing, extra or non-finite metric is itself
    /// a problem.
    pub fn finish(mut self, expected: &[(&str, &str)]) -> String {
        for (name, value) in &self.metrics {
            if !value.is_finite() {
                self.problems
                    .push(format!("metric {name} is not finite ({value})"));
            }
        }
        let names: Vec<&str> = self.metrics.iter().map(|(n, _)| n.as_str()).collect();
        for (name, _) in expected {
            if names.iter().filter(|n| *n == name).count() != 1 {
                self.problems.push(format!(
                    "metric {name} reported {} times",
                    names.iter().filter(|n| *n == name).count()
                ));
            }
        }
        for name in &names {
            if !expected.iter().any(|(e, _)| e == name) {
                self.problems.push(format!("unexpected metric {name}"));
            }
        }
        for p in self.problems.iter().take(PRINTED_PROBLEMS) {
            println!("FAIL {p}");
        }
        if self.problems.len() > PRINTED_PROBLEMS {
            println!("FAIL … and {} more", self.problems.len() - PRINTED_PROBLEMS);
        }
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.problems.is_empty() && self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in expected.iter().enumerate() {
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, v)| *v);
            let value = if value.is_finite() { value } else { 0.0 };
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_metric_once() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        for (name, _) in END_TO_END {
            r.metric(name, 1.25);
        }
        let line = r.finish(&END_TO_END);
        let json = kibamrm_net::Json::parse(&line).unwrap();
        assert_eq!(json.get("correct").unwrap().as_bool(), Some(true));
        assert_eq!(json.get("attempted").unwrap().as_f64(), Some(3.0));
        let metrics = json.get("metrics").unwrap();
        for (name, unit) in END_TO_END {
            let m = metrics.get(name).unwrap();
            assert_eq!(m.get("unit").unwrap().as_str(), Some(unit));
            assert_eq!(m.get("value").unwrap().as_f64(), Some(1.25));
        }
    }

    #[test]
    fn missing_metrics_and_failures_are_incorrect() {
        let mut r = Report {
            attempted: 1,
            ..Report::default()
        };
        r.metric("setup_s", 0.5);
        let json = kibamrm_net::Json::parse(&r.finish(&END_TO_END)).unwrap();
        assert_eq!(json.get("correct").unwrap().as_bool(), Some(false));

        let mut r = Report::default();
        for (name, _) in END_TO_END {
            r.metric(name, 1.0);
        }
        r.fail("wrong answer");
        let json = kibamrm_net::Json::parse(&r.finish(&END_TO_END)).unwrap();
        assert_eq!(json.get("correct").unwrap().as_bool(), Some(false));
        assert_eq!(json.get("failed").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn benchmark_manifest_matches_the_reported_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let json = kibamrm_net::Json::parse(&text).unwrap();
        for (key, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let entries = json.get(key).unwrap().as_array().unwrap();
            let listed: Vec<(&str, &str)> = entries
                .iter()
                .map(|e| {
                    (
                        e.get("name").unwrap().as_str().unwrap(),
                        e.get("unit").unwrap().as_str().unwrap(),
                    )
                })
                .collect();
            assert_eq!(listed, list, "{key}");
        }
    }
}

//! The benchmark's contract: workloads, metric names and units, and the
//! one-line JSON result every run prints last.
//!
//! `BENCHMARK.json` at the repository root is rendered from these tables
//! (`perfbench --spec`), and a self-test pins the committed file to them.

/// One named metric of the contract.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Stable metric name.
    pub name: &'static str,
    /// Unit the value is reported in.
    pub unit: &'static str,
    /// `higher` or `lower`.
    pub better: &'static str,
    /// Allowed worsening as a share of the parent's median
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricSpec {
    MetricSpec { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec { name, unit, better, bound: None }
}

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 30;

/// Latency limit a served quote must meet to count as on time.
pub const LATENCY_LIMIT_MS: f64 = 5.0;

/// Workload names and why each was chosen (loop type and load included).
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "batch-reprice",
        "closed loop, 1 caller on 2 threads: back-to-back price_parallel passes over a 1,048,576-option mixed book (lane kernel + thread pool; the paper's options/s case)",
    ),
    (
        "tick-stream",
        "closed loop, 1 feed handler: seeded one-point curve ticks (80% off-lattice, 15% on-lattice, 5% hazard) on a resident 1M book via IncrementalEngine::apply_tick",
    ),
    (
        "quote-serve",
        "open loop, 1 connection: Poisson zipf QUOTEs + 1 TICKPT per 100 at 2k,5k,10k,20k/s into an in-memory 2-shard cds-server; latency limit 5 ms",
    ),
];

/// End-to-end metrics: every untraced run reports all of them. What
/// each means per workload is listed in `perfbench/README.md`.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("throughput_per_s", "1/s", "higher", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.15),
    e2e("setup_s", "s", "lower", 0.25),
];

/// Per-layer metrics: every traced run reports all of them; a layer the
/// workload bypasses reads 0.
pub const PER_LAYER: &[MetricSpec] = &[
    layer("lanes.options_per_s_1t", "1/s", "higher"),
    layer("lanes.time_points", "count", "lower"),
    layer("lanes.scalar_fallbacks", "count", "lower"),
    layer("lanes.sparse_options_per_s", "1/s", "higher"),
    layer("parallel.scaling_eff", "ratio", "higher"),
    layer("parallel.call_overhead_us", "us", "lower"),
    layer("engine.price_us", "us", "lower"),
    layer("engine.build_us", "us", "lower"),
    layer("portfolio.affected_us.offlattice", "us", "lower"),
    layer("portfolio.affected_us.onlattice", "us", "lower"),
    layer("portfolio.affected_us.hazard", "us", "lower"),
    layer("portfolio.affected_mean.offlattice", "count", "lower"),
    layer("portfolio.affected_mean.onlattice", "count", "lower"),
    layer("portfolio.affected_mean.hazard", "count", "lower"),
    layer("portfolio.index_entries", "count", "lower"),
    layer("incremental.apply_ms_p50.offlattice", "ms", "lower"),
    layer("incremental.apply_ms_p50.onlattice", "ms", "lower"),
    layer("incremental.apply_ms_p50.hazard", "ms", "lower"),
    layer("incremental.hazard_vs_full", "ratio", "lower"),
    layer("incremental.delta_yield", "ratio", "higher"),
    layer("incremental.insert_s", "s", "lower"),
    layer("incremental.tick_p99_ms", "ms", "lower"),
    layer("proto.parse_ns", "ns", "lower"),
    layer("proto.format_ns", "ns", "lower"),
    layer("fair.push_pop_ns", "ns", "lower"),
    layer("hedge.record_ns", "ns", "lower"),
    layer("server.hedges", "count", "lower"),
    layer("server.retries", "count", "lower"),
    layer("server.hedge_frac", "ratio", "lower"),
    layer("snapshot.publish_point_us", "us", "lower"),
    layer("wal.accept_us_p50", "us", "lower"),
    layer("wal.accept_us_p99", "us", "lower"),
    layer("wal.done_us_p50", "us", "lower"),
    layer("wal.done_us_p99", "us", "lower"),
    layer("server.ping_rtt_us", "us", "lower"),
    layer("server.shed_frac", "ratio", "lower"),
    layer("server.deadline_misses", "count", "lower"),
    layer("server.worst_rung", "count", "lower"),
    layer("quote.p50_us.r2000", "us", "lower"),
    layer("quote.p50_us.r5000", "us", "lower"),
    layer("quote.p50_us.r10000", "us", "lower"),
    layer("quote.p50_us.r20000", "us", "lower"),
    layer("quote.p99_us.r2000", "us", "lower"),
    layer("quote.p99_us.r5000", "us", "lower"),
    layer("quote.p99_us.r10000", "us", "lower"),
    layer("quote.p99_us.r20000", "us", "lower"),
    layer("quote.ok_frac.r2000", "ratio", "higher"),
    layer("quote.ok_frac.r5000", "ratio", "higher"),
    layer("quote.ok_frac.r10000", "ratio", "higher"),
    layer("quote.ok_frac.r20000", "ratio", "higher"),
    layer("server.unexplained_us", "us", "lower"),
    layer("gen.lag_p99_us", "us", "lower"),
    layer("trace.overhead_frac", "ratio", "lower"),
];

/// What one run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (passes, ticks, or requests sent).
    pub attempted: u64,
    /// Operations that failed: wrong answers, errors, missing replies.
    pub failed: u64,
    /// Metric values by name; units come from the contract tables.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Record a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    /// A recorded value, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Whether every checked answer was right.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: exactly the metrics of `table`, in its order, each
    /// with its unit. A table metric this run did not record reads 0.
    ///
    /// # Errors
    /// A recorded value that is not finite, or a recorded name outside
    /// the table (both are benchmark bugs).
    pub fn result_line(&self, table: &[MetricSpec]) -> Result<String, String> {
        if let Some((name, _)) =
            self.metrics.iter().find(|(n, _)| !table.iter().any(|s| s.name == *n))
        {
            return Err(format!("metric `{name}` is not in the contract"));
        }
        let mut fields = Vec::with_capacity(table.len());
        for spec in table {
            let value = self.get(spec.name).unwrap_or(0.0);
            if !value.is_finite() {
                return Err(format!("metric `{}` is not finite: {value}", spec.name));
            }
            fields.push(format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                spec.name, spec.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn spec_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let metrics = |table: &[MetricSpec]| -> String {
        table
            .iter()
            .map(|m| {
                let bound = m.bound.map_or_else(String::new, |b| format!(", \"bound\": {b}"));
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
                    m.name, m.unit, m.better
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"perfbench\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        metrics(END_TO_END),
        metrics(PER_LAYER)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(committed, spec_json(), "regenerate with `perfbench --spec > BENCHMARK.json`");
    }

    #[test]
    fn names_units_and_whys_respect_the_contract_limits() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
        for n in &names {
            assert!(ok_name(n), "bad name {n}");
        }
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "names must be unique");
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n') && !why.contains('"'), "{why}");
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(m.unit.len() <= 16 && matches!(m.better, "higher" | "lower"), "{m:?}");
        }
        for m in END_TO_END {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{m:?}");
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        assert!((2..=8).contains(&WORKLOADS.len()));
    }

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        let mut o = Outcome { attempted: 3, failed: 0, metrics: Vec::new() };
        o.set("setup_s", 0.5);
        let line = o.result_line(END_TO_END).expect("finite values");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        for m in END_TO_END {
            assert!(line.contains(&format!("\"{}\": {{\"value\": ", m.name)), "{line}");
            assert!(line.contains(&format!("\"unit\": \"{}\"}}", m.unit)), "{line}");
        }
        o.set("throughput_per_s", f64::NAN);
        assert!(o.result_line(END_TO_END).is_err());
        o.set("throughput_per_s", 1.0);
        o.set("nonsense", 1.0);
        assert!(o.result_line(END_TO_END).is_err());
        o.failed = 1;
        o.metrics.clear();
        assert!(o.result_line(END_TO_END).is_ok_and(|l| l.contains("\"correct\": false")));
    }
}

//! Machine-readable benchmark ladder with a regression gate.
//!
//! [`run`] executes the paper's full experiment ladder — the Table I
//! engine variants, the Table II multi-engine sweep, three streaming
//! load points and the CPU thread sweep — entirely on deterministic
//! models (the cycle-accurate simulator for the FPGA backends, the
//! calibrated Cascade Lake model for the CPU; never wall clock), so two
//! runs with the same seed produce byte-identical reports. [`GATE`]
//! gates one report against a committed baseline
//! (`results/bench_baseline.json`): throughput may not drop and latency
//! may not rise by more than the tolerance, and the metric set itself
//! may not silently drift.

use crate::json::Json;
use crate::metrics::RunMetrics;
use crate::rate_gate::{Better, Metric, RateGate, RateSpec};
use crate::workload::Workload;
use cds_cpu::parallel::price_parallel_stats;
use cds_cpu::{CpuCdsEngine, CpuPerfModel};
use cds_engine::config::{EngineConfig, EngineVariant};
use cds_engine::multi::{BatchPolicy, MultiEngine};
use cds_engine::streaming::{poisson_arrivals, run_streaming};
use cds_engine::FpgaCdsEngine;
use cds_power::{CpuPowerModel, FpgaPowerModel};
use dataflow_sim::resource::Device;
use dataflow_sim::trace::TraceRecorder;
use std::rc::Rc;

/// Default option-batch size for `bench` runs — smaller than the
/// table-rendering default so the five-engine simulations stay quick in
/// CI, large enough to amortise fills and restarts.
pub const DEFAULT_BENCH_BATCH: usize = 96;

/// Streaming runs use at most this many arrivals (overload queues grow
/// with the arrival count, not the batch size).
const STREAMING_ARRIVALS: usize = 48;

/// CPU thread counts swept (the paper's machine tops out at 24 cores).
const CPU_THREADS: [u32; 6] = [1, 2, 4, 8, 16, 24];

/// The ladder gate: each [`RunMetrics`] record is a row (under
/// `metrics`) whose throughput may not drop and whose p99 and max
/// latency may not rise by more than the tolerance.
pub static GATE: RateSpec = RateSpec {
    gate: "bench",
    schema_version: 1,
    rows: "metrics",
    metrics: &[
        Metric {
            key: "options_per_second",
            what: "throughput",
            unit: "options/s",
            better: Better::Higher,
        },
        Metric { key: "p99_latency_us", what: "p99 latency", unit: "us", better: Better::Lower },
        Metric { key: "max_latency_us", what: "max latency", unit: "us", better: Better::Lower },
    ],
    context: &[],
    floors: &[],
    invariants: &[],
    tolerance: 0.10,
    baseline: "results/bench_baseline.json",
};

/// Kebab-case metric slug of a Table I variant.
fn variant_slug(v: EngineVariant) -> &'static str {
    match v {
        EngineVariant::XilinxBaseline => "xilinx-baseline",
        EngineVariant::OptimisedDataflow => "optimised-dataflow",
        EngineVariant::InterOption => "inter-option",
        EngineVariant::Vectorised => "vectorised",
    }
}

/// A variant config with a fresh busy-span recorder attached, so the
/// run's utilisation and occupancy counters are populated.
fn traced_config(v: EngineVariant) -> EngineConfig {
    let mut config = v.config();
    config.trace = Some(TraceRecorder::new());
    config
}

/// Execute the full ladder, in ladder order. Deterministic: same `seed`
/// and `batch` give identical metrics (all FPGA numbers come from the
/// discrete-event simulator, all CPU numbers from the calibrated model).
pub fn run(seed: u64, batch: usize) -> Vec<RunMetrics> {
    let w = Workload::paper(seed, batch);
    let fpga_power = FpgaPowerModel::alveo_u280_cds();
    let cpu_power = CpuPowerModel::xeon_8260m();
    let cpu_model = CpuPerfModel::xeon_8260m();
    let cpu_engine = CpuCdsEngine::new(&w.market);
    let mut metrics = Vec::new();

    // Table I: the paper's CPU reference core, then the variant ladder.
    let (_, core_stats) = cpu_engine.price_batch_stats(&w.options);
    metrics.push(RunMetrics::from_cpu_model(
        "table1/cpu-core",
        cpu_model.options_per_second(1),
        &core_stats,
        cpu_power.watts(1),
    ));
    for v in EngineVariant::ALL {
        let engine = FpgaCdsEngine::new(w.market.clone(), traced_config(v));
        let report = engine.price_batch(&w.options);
        metrics.push(RunMetrics::from_engine_report(
            &format!("table1/{}", variant_slug(v)),
            &report,
            fpga_power.watts(1),
        ));
    }

    // Table II: 1–5 vectorised engines in a single simulation, plus the
    // 24-core CPU row.
    for n in 1..=5usize {
        let multi = match MultiEngine::with_config(
            w.market.clone(),
            traced_config(EngineVariant::Vectorised),
            Device::alveo_u280(),
            n,
        ) {
            Ok(m) => m,
            Err(e) => panic!("1..=5 engines must fit the U280: {e}"),
        };
        let report = multi
            .price_batch_resilient(&w.options, &BatchPolicy::default(), None)
            .unwrap_or_else(|e| panic!("fault-free {n}-engine run must succeed: {e}"));
        metrics.push(RunMetrics::from_multi_report(
            &format!("table2/engines-{n}"),
            &report,
            fpga_power.watts(n as u32),
        ));
    }
    let (_, socket_stats) = price_parallel_stats(&cpu_engine, &w.options, 24);
    metrics.push(RunMetrics::from_cpu_model(
        "table2/cpu-24-core",
        cpu_model.options_per_second(24),
        &socket_stats,
        cpu_power.watts(24),
    ));

    // Streaming: light load (latency = pipeline fill), near saturation
    // (queueing dominates) and overload (input FIFOs fill, backpressure).
    let market = Rc::new(w.market.clone());
    let stream_opts = &w.options[..w.options.len().min(STREAMING_ARRIVALS)];
    for (label, rate) in [("light", 13_000.0), ("saturated", 25_000.0), ("overload", 120_000.0)] {
        let config = traced_config(EngineVariant::Vectorised);
        let arrivals = poisson_arrivals(&config, rate, stream_opts.len(), seed);
        let report = run_streaming(market.clone(), &config, stream_opts, &arrivals);
        metrics.push(RunMetrics::from_streaming_report(
            &format!("streaming/{label}"),
            &report,
            &config,
            fpga_power.watts(1),
        ));
    }

    // CPU thread sweep: modelled throughput, real work accounting.
    for threads in CPU_THREADS {
        let (_, stats) = price_parallel_stats(&cpu_engine, &w.options, threads as usize);
        metrics.push(RunMetrics::from_cpu_model(
            &format!("cpu/threads-{threads}"),
            cpu_model.options_per_second(threads),
            &stats,
            cpu_power.watts(threads),
        ));
    }

    metrics
}

/// The gated report of a ladder run.
pub fn report(seed: u64, batch: usize, metrics: &[RunMetrics]) -> RateGate {
    RateGate::report(
        &GATE,
        vec![("seed", Json::Number(seed as f64)), ("batch", Json::Number(batch as f64))],
        metrics.iter().map(RunMetrics::to_json).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_is_deterministic() {
        // The ISSUE's contract: two runs with the same seed produce
        // identical RunMetrics — nothing in the ladder may consult wall
        // clock or unseeded randomness.
        let a = run(7, 12);
        let b = run(7, 12);
        assert_eq!(a, b);
        assert_eq!(report(7, 12, &a).pretty(), report(7, 12, &b).pretty());
    }

    #[test]
    fn ladder_covers_all_experiments() {
        let r = run(5, 10);
        let find = |name: &str| {
            r.iter().find(|m| m.name == name).unwrap_or_else(|| panic!("missing metric {name}"))
        };
        for name in [
            "table1/cpu-core",
            "table1/xilinx-baseline",
            "table1/optimised-dataflow",
            "table1/inter-option",
            "table1/vectorised",
            "table2/engines-1",
            "table2/engines-2",
            "table2/engines-3",
            "table2/engines-4",
            "table2/engines-5",
            "table2/cpu-24-core",
            "streaming/light",
            "streaming/saturated",
            "streaming/overload",
            "cpu/threads-1",
            "cpu/threads-24",
        ] {
            let m = find(name);
            assert!(m.options_per_second > 0.0, "{name} has zero throughput");
            assert!(m.watts > 0.0, "{name} has zero power");
        }
        // Traced FPGA runs must carry real telemetry.
        let vec = find("table1/vectorised");
        assert!(vec.mean_utilisation > 0.0 && vec.mean_utilisation <= 1.0);
        assert!(vec.occupancy_high_water > 0);
        // Streaming overload must expose queueing in the percentiles.
        let over = find("streaming/overload");
        assert!(over.p50_latency_us <= over.p99_latency_us);
        assert!(over.p99_latency_us <= over.max_latency_us);
        assert!(over.backpressure_events > 0, "overload must backpressure");
    }
}

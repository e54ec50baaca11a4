//! `batch-reprice`: full revaluation of a mixed book through
//! `cds_cpu::parallel::price_parallel`, back to back (closed loop).
//!
//! Oracle: the first pass must be `to_bits`-equal to the scalar
//! reference `CpuCdsEngine::price_batch_scalar`; every timed pass must
//! equal that reference too.

use crate::report::Outcome;
use crate::stats::{median, quantile, tail_q};
use crate::trace::Tracer;
use crate::RunArgs;
use cds_cpu::{price_parallel, CpuCdsEngine};
use cds_quant::option::{CdsOption, MarketData, PortfolioGenerator};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Size of one batch-reprice run.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Options in the book.
    pub options: usize,
    /// Set-ups timed per run; `setup_s` is their median.
    pub setups: usize,
    /// Flip one bit of one timed pass's output before the oracle sees
    /// it (self-test only: proves the oracle can fail).
    pub corrupt: bool,
}

impl BatchConfig {
    /// The benchmark's size: a 1,048,576-option book on 2 threads.
    pub fn full() -> BatchConfig {
        BatchConfig { options: 1 << 20, setups: 3, corrupt: false }
    }
}

/// Pricing threads: the 2 cores of the host the benchmark was sized on.
const THREADS: usize = 2;

/// Options per call of the tiny batch that exposes thread-pool overhead.
const TINY_BATCH: usize = 16;

struct Book {
    engine: CpuCdsEngine,
    options: Vec<CdsOption>,
}

fn set_up(seed: u64, n: usize) -> Book {
    let market = MarketData::paper_workload(seed);
    let options = PortfolioGenerator::new(seed).portfolio(n);
    Book { engine: CpuCdsEngine::new(&market), options }
}

/// Count spreads whose bits differ from the reference (plus any length
/// difference).
pub fn mismatches(out: &[f64], reference: &[u64]) -> u64 {
    out.iter().zip(reference).filter(|(a, b)| a.to_bits() != **b).count() as u64
        + out.len().abs_diff(reference.len()) as u64
}

/// Timed passes of `price_parallel` for `window`; returns each pass's
/// duration and counts passes that disagreed with the reference.
fn passes(
    book: &Book,
    cfg: &BatchConfig,
    reference: &[u64],
    window: Duration,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
) -> Vec<f64> {
    let mut times = Vec::new();
    let started = Instant::now();
    while times.is_empty() || started.elapsed() < window {
        let span = tracer.begin("parallel.price_parallel", None);
        let t0 = Instant::now();
        let mut out = price_parallel(&book.engine, black_box(&book.options), THREADS);
        let dt = t0.elapsed().as_secs_f64();
        tracer.end(span);
        if cfg.corrupt && times.len() == 1 {
            let mid = out.len() / 2;
            out[mid] = f64::from_bits(out[mid].to_bits() ^ 1);
        }
        let wrong = tracer.span("oracle.compare", None, || mismatches(&out, reference));
        outcome.attempted += 1;
        if wrong > 0 {
            outcome.failed += 1;
        }
        times.push(dt);
    }
    times
}

/// Run the workload; the traced run adds the per-layer probes.
pub fn run(args: &RunArgs, cfg: &BatchConfig, tracer: &mut Tracer) -> Outcome {
    let mut outcome = Outcome::default();
    let mut setup_times = Vec::new();
    let mut book = None;
    let setups = if tracer.is_on() { 1 } else { cfg.setups };
    for _ in 0..setups {
        drop(book.take());
        let t0 = Instant::now();
        book = Some(tracer.span("setup", None, || set_up(args.seed, cfg.options)));
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let book = book.expect("at least one set-up ran");
    let reference: Vec<u64> = tracer.span("oracle.scalar", None, || {
        book.engine.price_batch_scalar(&book.options).into_iter().map(f64::to_bits).collect()
    });
    // Warm-up: first-touch of the output buffers and thread stacks.
    black_box(price_parallel(&book.engine, &book.options, THREADS));

    let window = Duration::from_secs_f64(args.seconds);
    let n = book.options.len() as f64;
    if !tracer.is_on() {
        let mut times = passes(&book, cfg, &reference, window, tracer, &mut outcome);
        let total: f64 = times.iter().sum();
        times.sort_by(f64::total_cmp);
        let p50 = quantile(&times, 0.5).unwrap_or(0.0);
        let q = tail_q(times.len());
        let tail = quantile(&times, q).unwrap_or(0.0);
        outcome.set("throughput_per_s", n * times.len() as f64 / total);
        outcome.set("setup_s", median(&setup_times));
        outcome.set("peak_rss_mb", crate::stats::peak_rss_mb());
        println!("reprice_options_per_s = {:.0} options/s", n * times.len() as f64 / total);
        println!(
            "reprice_pass_ms p50 = {:.3} ms, p{:.0} = {:.3} ms over {} passes of {} options",
            p50 * 1e3,
            q * 100.0,
            tail * 1e3,
            times.len(),
            book.options.len()
        );
        return outcome;
    }

    // Traced run: half the window untraced, half traced, for the
    // tracing overhead; then the single-layer probes.
    let mut quiet = Tracer::off();
    let untraced = passes(&book, cfg, &reference, window / 2, &mut quiet, &mut outcome);
    let traced = passes(&book, cfg, &reference, window / 2, tracer, &mut outcome);
    let rate = |t: &[f64]| n * t.len() as f64 / t.iter().sum::<f64>();
    let (rate_untraced, rate_traced) = (rate(&untraced), rate(&traced));

    // Lane kernel alone, one thread, same book.
    let mut kernel = book.engine.lane_kernel();
    let mut out = Vec::new();
    let mut stats = cds_cpu::CpuBatchStats::default();
    let mut lane_times = Vec::new();
    let started = Instant::now();
    while lane_times.len() < 3 || started.elapsed() < window / 4 {
        let span = tracer.begin("lanes.price_into", None);
        stats = kernel.price_into(black_box(&book.options), &mut out);
        lane_times.push(tracer.end(span));
        outcome.attempted += 1;
        if mismatches(&out, &reference) > 0 {
            outcome.failed += 1;
        }
    }
    let rate_1t = rate(&lane_times);

    // Thread-pool call overhead: a tiny batch, where spawning dominates.
    let tiny = &book.options[..TINY_BATCH.min(book.options.len())];
    for _ in 0..500 {
        tracer.span("parallel.tiny_batch", None, || {
            black_box(price_parallel(&book.engine, black_box(tiny), THREADS))
        });
    }
    let tiny_s = median(&tracer.durations("parallel.tiny_batch"));

    outcome.set("lanes.options_per_s_1t", rate_1t);
    outcome.set("lanes.time_points", stats.time_points as f64);
    outcome.set("lanes.scalar_fallbacks", stats.scalar_fallbacks as f64);
    outcome.set("parallel.scaling_eff", rate_traced / (THREADS as f64 * rate_1t));
    outcome.set("parallel.call_overhead_us", (tiny_s - tiny.len() as f64 / rate_1t) * 1e6);
    outcome.set("trace.overhead_frac", rate_untraced / rate_traced - 1.0);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(corrupt: bool) -> BatchConfig {
        BatchConfig { options: 4096, setups: 2, corrupt }
    }

    fn args(trace: bool) -> RunArgs {
        RunArgs { seed: 5, seconds: 0.2, trace, out_dir: std::env::temp_dir() }
    }

    #[test]
    fn clean_run_is_correct_and_reports_every_end_to_end_metric() {
        let o = run(&args(false), &small(false), &mut Tracer::off());
        assert!(o.correct(), "{o:?}");
        for m in crate::report::END_TO_END {
            assert!(o.get(m.name).is_some_and(|v| v > 0.0), "{} missing", m.name);
        }
    }

    #[test]
    fn corrupted_spread_is_counted_as_a_failure() {
        let o = run(&args(false), &small(true), &mut Tracer::off());
        assert_eq!(o.failed, 1, "{o:?}");
        assert!(!o.correct());
    }

    #[test]
    fn traced_run_reports_its_layers() {
        let o = run(&args(true), &small(false), &mut Tracer::on());
        assert!(o.correct());
        for name in ["lanes.options_per_s_1t", "lanes.time_points", "parallel.scaling_eff"] {
            assert!(o.get(name).is_some_and(|v| v > 0.0), "{name}");
        }
        assert!(o.get("trace.overhead_frac").is_some_and(f64::is_finite));
    }
}

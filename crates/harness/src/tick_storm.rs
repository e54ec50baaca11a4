//! `cds-harness bench --tick-storm` — wall-clock tick-storm measurement
//! of the incremental repricing engine, with a CI regression gate.
//!
//! The scenario is ROADMAP item 1 made measurable: a resident book of
//! ≥1M options, a storm of single-point curve ticks, and the question
//! "how much faster is arrangement-driven invalidation than repricing
//! the whole book?". Three rows are timed after warm-up:
//!
//! * `full/reprice` — from-scratch full-book passes per second (the
//!   pre-incremental behaviour, and the oracle);
//! * `incremental/off-lattice-1pt` — single-point interest ticks at
//!   **lattice-free** knots (windows containing no shared payment-grid
//!   time of any resident frequency, so only per-option maturity and
//!   stub-midpoint reads are invalidated — see
//!   `docs/PERFORMANCE.md`), ticks per second;
//! * `incremental/hazard-mid` — deliberately *hot* ticks at the middle
//!   hazard knot, whose prefix window invalidates most of the book. No
//!   arrangement can make a tick that most options read cheap, but the
//!   engine splits its sparse reprice across the cores while the full
//!   reprice stays on one, so a hot tick must never be slower than a
//!   full pass.
//!
//! [`GATE`] gates a run against `results/tick_storm_baseline.json`:
//! absolute per-row floors carry the runner-noise tolerance, while two
//! ratios are checked **without tolerance** — both sides of each see
//! the same machine: the headline `incremental_speedup` (off-lattice
//! ticks/s over full passes/s) against [`MIN_TICK_SPEEDUP`], and
//! `hazard_vs_full` (the fastest of [`HAZARD_VS_FULL_ROUNDS`]
//! alternating full passes over the fastest hazard-mid tick) against
//! [`MIN_HAZARD_VS_FULL`].
//! The gate also requires bitwise cleanliness: after the storm the
//! stored spreads must be bit-identical to a full reprice
//! (`bit_mismatches == 0`), no measured tick may have degenerated into
//! a zero-delta no-op, and a zero-delta probe must report an empty
//! affected set.

use crate::json::Json;
use crate::rate_gate::{Better, Floor, Invariant, Metric, RateGate, RateSpec};
use crate::throughput::{measure, DEFAULT_MIN_SAMPLE};
use cds_engine::incremental::{CurveKind, CurveTick, IncrementalEngine};
use cds_quant::option::{MarketData, PortfolioGenerator};
use std::time::{Duration, Instant};

/// Default resident book of a tick-storm run: the ISSUE's ≥1M options.
pub const DEFAULT_TICK_RESIDENTS: usize = 1_048_576;

/// Machine-independent floor on `incremental_speedup`: off-lattice
/// single-point ticks must process at least this many times faster than
/// full-book repricing. Checked without tolerance — the ratio cancels
/// machine speed.
pub const MIN_TICK_SPEEDUP: f64 = 100.0;

/// Machine-independent floor on `hazard_vs_full`: a hot mid-curve
/// hazard tick must process at least as fast as a full-book reprice.
/// Checked without tolerance, like [`MIN_TICK_SPEEDUP`].
pub const MIN_HAZARD_VS_FULL: f64 = 1.0;

/// Rounds behind `hazard_vs_full`: one timed full reprice and one timed
/// hazard-mid tick alternate per round, and the ratio is the fastest
/// full pass over the fastest tick. Each side keeps its best round, so
/// a burst of host load cannot land on only one side — which matters
/// here, as the hot tick runs on every core and the full pass on one.
pub const HAZARD_VS_FULL_ROUNDS: usize = 5;

/// The tick-storm gate. Rows `full/reprice`, `incremental/off-lattice-1pt`
/// and `incremental/hazard-mid` carry `per_second` (full passes or
/// ticks); the resident book and interest knot count must match the
/// baseline's; `incremental_speedup` (off-lattice ticks/s over full
/// passes/s) must clear the baseline's `min_tick_speedup` and
/// `hazard_vs_full` (see [`HAZARD_VS_FULL_ROUNDS`]) its
/// `min_hazard_vs_full`; and the run must be bitwise clean. The report
/// also carries, ungated, `free_knots` (lattice-free interest knots of
/// the book) and `mean_affected` (mean affected set of the measured
/// off-lattice ticks).
pub static GATE: RateSpec = RateSpec {
    gate: "tick-storm",
    schema_version: 1,
    rows: "rows",
    metrics: &[Metric {
        key: "per_second",
        what: "rate",
        unit: "per second",
        better: Better::Higher,
    }],
    context: &[("residents", "resident book"), ("knots", "knot count")],
    floors: &[
        Floor {
            value: "incremental_speedup",
            floor: "min_tick_speedup",
            what: "incremental speedup",
        },
        Floor {
            value: "hazard_vs_full",
            floor: "min_hazard_vs_full",
            what: "hazard-mid over full reprice",
        },
    ],
    invariants: &[
        Invariant {
            key: "bit_mismatches",
            holds: Json::Number(0.0),
            what: "stored spreads differ bitwise from a full reprice — incremental state corrupt",
        },
        Invariant {
            key: "zero_delta_clean",
            holds: Json::Bool(true),
            what: "zero-delta contract violated: a no-op tick invalidated options or a measured \
                   tick degenerated",
        },
    ],
    // Same rationale as the throughput gate: shared CI runners jitter.
    tolerance: 0.40,
    baseline: "results/tick_storm_baseline.json",
};

/// Measure a tick storm with the default sample window.
pub fn run(seed: u64, residents: usize) -> RateGate {
    run_with(seed, residents, DEFAULT_MIN_SAMPLE)
}

/// As [`run`], with an explicit minimum sample window (tests use a tiny
/// window; CI uses the default).
pub fn run_with(seed: u64, residents: usize, min_sample: Duration) -> RateGate {
    assert!(residents >= 1, "need at least one resident option");
    let market = MarketData::paper_workload(seed);
    let options = PortfolioGenerator::new(seed).portfolio(residents);
    let mut engine = IncrementalEngine::new(market);
    engine.insert_batch(&options);

    let interest_tenors: Vec<f64> = engine.tenors(CurveKind::Interest).to_vec();
    let knots = interest_tenors.len();
    let mut free = engine.portfolio().lattice_free_interest_knots(&interest_tenors);
    let free_knots = free.len();
    if free.is_empty() {
        // Degenerate book (every knot shares a lattice read): fall back
        // to the last knot so the storm still runs; the speedup gate
        // will report the honest (poor) ratio.
        free.push(knots - 1);
    }

    let full_passes = measure(
        || {
            let _ = engine.full_reprice();
            1
        },
        min_sample,
    );

    // Off-lattice single-point interest ticks, cycling the free knots.
    // The value factor grows with a global counter, so no tick ever
    // re-publishes the value already at its knot (which would be a
    // zero-delta no-op and inflate the rate).
    let base: Vec<f64> =
        free.iter().map(|&k| engine.curve_value(CurveKind::Interest, k).unwrap_or(0.0)).collect();
    let mut n = 0u64;
    let mut dirty_ticks = 0u64;
    let mut affected_sum = 0u64;
    let mut measured_ticks = 0u64;
    let off_lattice = measure(
        || {
            let slot = (n % free.len() as u64) as usize;
            let value = base[slot] * (1.0 + 1e-9 * (n + 1) as f64) + 1e-12;
            n += 1;
            match engine.apply_tick(CurveTick {
                curve: CurveKind::Interest,
                knot: free[slot],
                value,
            }) {
                Ok(report) => {
                    if report.zero_delta {
                        dirty_ticks += 1;
                    }
                    affected_sum += report.affected as u64;
                    measured_ticks += 1;
                }
                Err(_) => dirty_ticks += 1,
            }
            1
        },
        min_sample,
    );

    // Hot hazard ticks at the middle knot: the prefix window covers
    // most of the book, the worst case for any invalidation scheme.
    let hazard_mid = engine.tenors(CurveKind::Hazard).len() / 2;
    let hazard_base = engine.curve_value(CurveKind::Hazard, hazard_mid).unwrap_or(0.01);
    let mut hn = 0u64;
    let mut hazard_tick = |engine: &mut IncrementalEngine| {
        let value = hazard_base * (1.0 + 1e-9 * (hn + 1) as f64) + 1e-12;
        hn += 1;
        match engine.apply_tick(CurveTick { curve: CurveKind::Hazard, knot: hazard_mid, value }) {
            Ok(report) => {
                if report.zero_delta {
                    dirty_ticks += 1;
                }
            }
            Err(_) => dirty_ticks += 1,
        }
        1
    };
    let hazard_rate = measure(|| hazard_tick(&mut engine), min_sample);
    let (mut best_full, mut best_hazard) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..HAZARD_VS_FULL_ROUNDS {
        let t = Instant::now();
        let _ = engine.full_reprice();
        best_full = best_full.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        hazard_tick(&mut engine);
        best_hazard = best_hazard.min(t.elapsed().as_secs_f64());
    }

    // Bitwise cleanliness after the whole storm: stored spreads vs a
    // fresh full reprice, compared as raw bits.
    let stored = engine.spreads();
    let full = engine.full_reprice();
    let bit_mismatches = stored.iter().zip(&full).filter(|(a, b)| a != b).count() as u64
        + stored.len().abs_diff(full.len()) as u64;

    // Zero-delta probe: re-publishing the current value must advance the
    // epoch without touching anything.
    let probe_value = engine.curve_value(CurveKind::Interest, 0).unwrap_or(0.0);
    let probe_clean = match engine.apply_tick(CurveTick {
        curve: CurveKind::Interest,
        knot: 0,
        value: probe_value,
    }) {
        Ok(report) => report.zero_delta && report.affected == 0 && report.deltas.is_empty(),
        Err(_) => false,
    };

    let n = |x: f64| Json::Number(x);
    let row = |name: &str, per_second: f64| {
        Json::object(vec![("name", Json::Str(name.to_string())), ("per_second", n(per_second))])
    };
    RateGate::report(
        &GATE,
        vec![
            ("seed", n(seed as f64)),
            ("residents", n(residents as f64)),
            ("knots", n(knots as f64)),
            ("free_knots", n(free_knots as f64)),
            ("mean_affected", n(affected_sum as f64 / (measured_ticks as f64).max(1.0))),
            ("incremental_speedup", n(off_lattice / full_passes)),
            ("min_tick_speedup", n(MIN_TICK_SPEEDUP)),
            ("hazard_vs_full", n(best_full / best_hazard)),
            ("min_hazard_vs_full", n(MIN_HAZARD_VS_FULL)),
            ("bit_mismatches", n(bit_mismatches as f64)),
            ("zero_delta_clean", Json::Bool(probe_clean && dirty_ticks == 0)),
        ],
        vec![
            row("full/reprice", full_passes),
            row("incremental/off-lattice-1pt", off_lattice),
            row("incremental/hazard-mid", hazard_rate),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_ratio_and_cleanliness_are_populated() {
        // Tiny book and window: a plumbing test, not a benchmark.
        let r = run_with(11, 512, Duration::from_millis(1));
        for name in ["full/reprice", "incremental/off-lattice-1pt", "incremental/hazard-mid"] {
            assert!(r.rate(name, "per_second").unwrap_or(0.0) > 0.0, "{name} has zero rate");
        }
        assert!(r.num("incremental_speedup") > 0.0);
        assert_eq!(r.num("min_tick_speedup"), MIN_TICK_SPEEDUP);
        assert!(r.num("hazard_vs_full") > 0.0);
        assert_eq!(r.num("min_hazard_vs_full"), MIN_HAZARD_VS_FULL);
        assert_eq!(r.num("bit_mismatches"), 0.0, "storm left bit-divergent spreads");
        assert_eq!(r.get("zero_delta_clean"), Some(&Json::Bool(true)), "zero-delta violated");
        assert!(r.num("free_knots") > 0.0, "paper curves should have lattice-free knots");
        assert_eq!(r.num("residents"), 512.0);
        assert_eq!(r.num("knots"), 1024.0);
    }
}

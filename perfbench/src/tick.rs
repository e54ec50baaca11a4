//! `tick-stream`: a resident book in `IncrementalEngine`, fed seeded
//! single-point curve ticks by one feed handler (closed loop).
//!
//! The mix is fixed per block of 20 ticks: 16 lattice-free interest
//! knots, 3 on-lattice interest knots and 1 hazard knot, shuffled per
//! block. Knots inside each class are drawn by a low-discrepancy walk,
//! and every bump is non-zero.
//!
//! Oracle: every `TickReport` must advance the epoch by one, carry no
//! zero-delta flag, and report deltas whose old bits match the spreads
//! the benchmark tracks from the previous reports. After the run, the
//! stored spreads must be `to_bits`-equal both to `full_reprice` and to
//! the spreads the reports add up to.

use crate::report::Outcome;
use crate::stats::{median, quantile, Rng, Weyl};
use crate::trace::Tracer;
use crate::RunArgs;
use cds_cpu::CpuCdsEngine;
use cds_engine::incremental::{CurveKind, CurveTick, IncrementalEngine};
use cds_engine::report::TickReport;
use cds_quant::option::{MarketData, PortfolioGenerator};
use std::time::{Duration, Instant};

/// Size of one tick-stream run.
#[derive(Debug, Clone, Copy)]
pub struct TickConfig {
    /// Resident options.
    pub options: usize,
    /// Set-ups timed per run; `setup_s` is their median.
    pub setups: usize,
    /// Corrupt one report's first delta before the oracle sees it
    /// (self-test only: proves the oracle can fail).
    pub corrupt: bool,
}

impl TickConfig {
    /// The benchmark's size: a 1,048,576-option resident book.
    pub fn full() -> TickConfig {
        TickConfig { options: 1 << 20, setups: 3, corrupt: false }
    }
}

/// Tick classes: indices into [`CLASSES`].
const OFF: usize = 0;
const ON: usize = 1;
const HAZARD: usize = 2;

/// Span and metric names of one tick class.
struct Class {
    apply_span: &'static str,
    affected_span: &'static str,
    apply_ms_p50: &'static str,
    affected_us: &'static str,
    affected_mean: &'static str,
}

const CLASSES: [Class; 3] = [
    Class {
        apply_span: "incremental.apply_tick.offlattice",
        affected_span: "portfolio.affected.offlattice",
        apply_ms_p50: "incremental.apply_ms_p50.offlattice",
        affected_us: "portfolio.affected_us.offlattice",
        affected_mean: "portfolio.affected_mean.offlattice",
    },
    Class {
        apply_span: "incremental.apply_tick.onlattice",
        affected_span: "portfolio.affected.onlattice",
        apply_ms_p50: "incremental.apply_ms_p50.onlattice",
        affected_us: "portfolio.affected_us.onlattice",
        affected_mean: "portfolio.affected_mean.onlattice",
    },
    Class {
        apply_span: "incremental.apply_tick.hazard",
        affected_span: "portfolio.affected.hazard",
        apply_ms_p50: "incremental.apply_ms_p50.hazard",
        affected_us: "portfolio.affected_us.hazard",
        affected_mean: "portfolio.affected_mean.hazard",
    },
];

/// One block of the mix: 16 off-lattice, 3 on-lattice, 1 hazard tick.
const BLOCK: [usize; 20] = [
    OFF, OFF, OFF, OFF, OFF, OFF, OFF, OFF, OFF, OFF, OFF, OFF, OFF, OFF, OFF, OFF, ON, ON, ON,
    HAZARD,
];

/// Ticks replayed against a copy of the arrangement in the traced
/// run's `portfolio` probe.
const PROBE_TICKS: usize = 200;

/// Of those, ticks whose affected sets the sparse kernel reprices.
const SPARSE_PROBE_TICKS: usize = 40;

/// Seeded tick generator: class mix, per-class knot walks, bumps.
struct Schedule {
    rng: Rng,
    block: Vec<usize>,
    walks: [Weyl; 3],
    knots: [Vec<usize>; 3],
}

impl Schedule {
    fn new(seed: u64, knots: [Vec<usize>; 3]) -> Schedule {
        let mut rng = Rng::new(seed, 0x7157);
        let walks = [Weyl::new(&mut rng), Weyl::new(&mut rng), Weyl::new(&mut rng)];
        Schedule { rng, block: Vec::new(), walks, knots }
    }

    /// Next `(class, curve, knot)`.
    fn next_knot(&mut self) -> (usize, CurveKind, usize) {
        if self.block.is_empty() {
            self.block = BLOCK.to_vec();
            for i in (1..self.block.len()).rev() {
                let j = self.rng.below(i + 1);
                self.block.swap(i, j);
            }
        }
        let class = self.block.pop().expect("block refilled above");
        let list = &self.knots[class];
        let knot = list[self.walks[class].next_index(list.len())];
        let curve = if class == HAZARD { CurveKind::Hazard } else { CurveKind::Interest };
        (class, curve, knot)
    }

    /// Next tick against the engine's current curves: a non-zero
    /// relative bump of 0.5e-4 to 1.5e-4, either sign.
    fn next(&mut self, eng: &IncrementalEngine) -> (usize, CurveTick) {
        let (class, curve, knot) = self.next_knot();
        let old = eng.curve_value(curve, knot).expect("scheduled knots are in bounds");
        let sign = if self.rng.next_u64() & 1 == 0 { 1.0 } else { -1.0 };
        let bump = sign * (0.5 + self.rng.unit()) * 1e-4;
        let mut value = old * (1.0 + bump) + bump * 1e-6;
        if value.to_bits() == old.to_bits() {
            value = f64::from_bits(old.to_bits() + 1);
        }
        (class, CurveTick { curve, knot, value })
    }
}

/// Knots of each class that the book actually reads: lattice-free and
/// on-lattice interest knots, and hazard knots, each restricted to
/// windows that start below the book's longest maturity.
fn classify(eng: &IncrementalEngine, max_maturity: f64) -> [Vec<usize>; 3] {
    let reads = |tenors: &[f64], k: usize| k == 0 || tenors[k - 1] < max_maturity;
    let interest = eng.tenors(CurveKind::Interest).to_vec();
    let hazard = eng.tenors(CurveKind::Hazard).to_vec();
    let free = eng.portfolio().lattice_free_interest_knots(&interest);
    let off: Vec<usize> = free.iter().copied().filter(|&k| reads(&interest, k)).collect();
    let on: Vec<usize> =
        (0..interest.len()).filter(|k| !free.contains(k) && reads(&interest, *k)).collect();
    let haz: Vec<usize> = (0..hazard.len()).filter(|&k| reads(&hazard, k)).collect();
    [off, on, haz]
}

/// State the oracle carries across ticks.
struct Checker {
    /// Spread bits per id, as the reports so far add up to.
    shadow: Vec<u64>,
    epoch: u64,
    deltas: u64,
    affected: u64,
}

impl Checker {
    /// Check one report and fold its deltas in; `false` on any
    /// inconsistency.
    fn apply(&mut self, report: &TickReport) -> bool {
        let mut ok = report.epoch == self.epoch + 1 && !report.zero_delta;
        ok &= report.deltas.len() <= report.affected;
        self.epoch = report.epoch;
        for d in &report.deltas {
            let slot = &mut self.shadow[d.id as usize];
            ok &= *slot == d.old_bits && d.old_bits != d.new_bits;
            *slot = d.new_bits;
        }
        self.deltas += report.deltas.len() as u64;
        self.affected += report.affected as u64;
        ok
    }
}

struct Phase {
    /// `(class, seconds)` per tick.
    ticks: Vec<(usize, f64)>,
}

impl Phase {
    fn busy_s(&self) -> f64 {
        self.ticks.iter().map(|t| t.1).sum()
    }
}

fn stream(
    eng: &mut IncrementalEngine,
    sched: &mut Schedule,
    checker: &mut Checker,
    window: Duration,
    corrupt: bool,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
) -> Phase {
    let mut ticks = Vec::new();
    let started = Instant::now();
    while ticks.is_empty() || started.elapsed() < window {
        let (class, tick) = sched.next(eng);
        let span = tracer.begin(CLASSES[class].apply_span, None);
        let t0 = Instant::now();
        let result = eng.apply_tick(tick);
        let dt = t0.elapsed().as_secs_f64();
        tracer.end(span);
        outcome.attempted += 1;
        let ok = match result {
            Ok(mut report) => {
                if corrupt && ticks.len() == 1 {
                    if let Some(d) = report.deltas.first_mut() {
                        d.new_bits ^= 1;
                    }
                }
                tracer.span("oracle.report", None, || checker.apply(&report))
            }
            Err(_) => false,
        };
        if !ok {
            outcome.failed += 1;
        }
        ticks.push((class, dt));
    }
    Phase { ticks }
}

/// Run the workload; the traced run adds the per-layer probes.
pub fn run(args: &RunArgs, cfg: &TickConfig, tracer: &mut Tracer) -> Outcome {
    let mut outcome = Outcome::default();
    let mut setup_times = Vec::new();
    let mut insert_s = 0.0;
    let mut engine = None;
    let setups = if tracer.is_on() { 1 } else { cfg.setups };
    for _ in 0..setups {
        drop(engine.take());
        let t0 = Instant::now();
        let root = tracer.begin("setup", None);
        let market = MarketData::paper_workload(args.seed);
        let book = PortfolioGenerator::new(args.seed).portfolio(cfg.options);
        let mut eng = IncrementalEngine::new(market);
        let span = tracer.begin("incremental.insert_batch", root);
        eng.insert_batch(&book);
        insert_s = tracer.end(span);
        tracer.end(root);
        setup_times.push(t0.elapsed().as_secs_f64());
        engine = Some(eng);
    }
    let mut eng = engine.expect("at least one set-up ran");
    let max_maturity = eng.portfolio().iter().map(|(_, o)| o.maturity).fold(0.0f64, f64::max);
    let knots = classify(&eng, max_maturity);
    let mut checker = Checker {
        shadow: eng.spreads().into_iter().map(|(_, bits)| bits).collect(),
        epoch: eng.epoch(),
        deltas: 0,
        affected: 0,
    };
    let mut sched = Schedule::new(args.seed, knots.clone());
    let window = Duration::from_secs_f64(args.seconds);

    let mut phases = Vec::new();
    if tracer.is_on() {
        let mut quiet = Tracer::off();
        let w = window.mul_f64(0.4);
        phases.push(stream(&mut eng, &mut sched, &mut checker, w, false, &mut quiet, &mut outcome));
        phases.push(stream(&mut eng, &mut sched, &mut checker, w, false, tracer, &mut outcome));
    } else {
        phases.push(stream(
            &mut eng,
            &mut sched,
            &mut checker,
            window,
            cfg.corrupt,
            tracer,
            &mut outcome,
        ));
    }

    // End state: stored spreads against a full reprice and against the
    // sum of the reports.
    let full = tracer.span("incremental.full_reprice", None, || eng.full_reprice());
    let stored = eng.spreads();
    let shadow_ok = stored.len() == checker.shadow.len()
        && stored.iter().all(|&(id, bits)| checker.shadow[id as usize] == bits);
    outcome.attempted += 1;
    if stored != full || !shadow_ok {
        outcome.failed += 1;
    }

    if !tracer.is_on() {
        let phase = &phases[0];
        let mut times: Vec<f64> = phase.ticks.iter().map(|t| t.1).collect();
        times.sort_by(f64::total_cmp);
        let p50 = quantile(&times, 0.5).unwrap_or(0.0);
        let q = crate::stats::tail_q(times.len());
        let tail = quantile(&times, q).unwrap_or(0.0);
        let rate = times.len() as f64 / phase.busy_s();
        outcome.set("throughput_per_s", rate);
        outcome.set("setup_s", median(&setup_times));
        outcome.set("peak_rss_mb", crate::stats::peak_rss_mb());
        let per_class: Vec<usize> =
            (0..3).map(|c| phase.ticks.iter().filter(|t| t.0 == c).count()).collect();
        println!("ticks_per_s = {rate:.2} ticks/s");
        println!("tick_p50_ms = {:.4} ms", p50 * 1e3);
        println!("tick_p{:.0}_ms = {:.4} ms over {} ticks", q * 100.0, tail * 1e3, times.len());
        println!(
            "ticks by class: offlattice {} / onlattice {} / hazard {}; knots per class {} / {} / {}",
            per_class[0],
            per_class[1],
            per_class[2],
            knots[0].len(),
            knots[1].len(),
            knots[2].len()
        );
        return outcome;
    }

    let mean_tick = |p: &Phase| p.busy_s() / p.ticks.len() as f64;
    outcome.set("trace.overhead_frac", mean_tick(&phases[1]) / mean_tick(&phases[0]) - 1.0);
    for class in &CLASSES {
        outcome.set(class.apply_ms_p50, median(&tracer.durations(class.apply_span)) * 1e3);
    }
    outcome.set("incremental.insert_s", insert_s);
    outcome.set("incremental.delta_yield", checker.deltas as f64 / checker.affected.max(1) as f64);
    let mut all: Vec<f64> = phases.iter().flat_map(|p| p.ticks.iter().map(|t| t.1)).collect();
    all.sort_by(f64::total_cmp);
    outcome.set("incremental.tick_p99_ms", quantile(&all, 0.99).unwrap_or(0.0) * 1e3);
    for _ in 0..2 {
        tracer.span("incremental.full_reprice", None, || eng.full_reprice());
    }
    let full_s = median(&tracer.durations("incremental.full_reprice"));
    let hazard_s = median(&tracer.durations(CLASSES[HAZARD].apply_span));
    outcome.set("incremental.hazard_vs_full", hazard_s / full_s);

    // Engine rebuild, as every tick performs it.
    for _ in 0..50 {
        tracer.span("engine.build", None, || std::hint::black_box(CpuCdsEngine::new(eng.market())));
    }
    outcome.set("engine.build_us", median(&tracer.durations("engine.build")) * 1e6);

    // Arrangement and sparse kernel, replaying the run's first ticks
    // against a copy of the arrangement.
    let mut portfolio = eng.portfolio().clone();
    outcome.set("portfolio.index_entries", portfolio.index_entries() as f64);
    let interest = eng.tenors(CurveKind::Interest).to_vec();
    let hazard = eng.tenors(CurveKind::Hazard).to_vec();
    let engine = CpuCdsEngine::new(eng.market());
    let mut kernel = engine.lane_kernel();
    let mut replay = Schedule::new(args.seed, knots);
    let mut sizes: [Vec<f64>; 3] = Default::default();
    let mut ids = Vec::new();
    let mut out = Vec::new();
    let (mut sparse_options, mut sparse_s) = (0usize, 0.0);
    for i in 0..PROBE_TICKS {
        let (class, curve, knot) = replay.next_knot();
        let span = tracer.begin(CLASSES[class].affected_span, None);
        match curve {
            CurveKind::Interest => portfolio.affected_by_interest(&interest, knot, &mut ids),
            CurveKind::Hazard => portfolio.affected_by_hazard(&hazard, knot, &mut ids),
        }
        tracer.end(span);
        sizes[class].push(ids.len() as f64);
        if i < SPARSE_PROBE_TICKS {
            let span = tracer.begin("lanes.price_indices_into", None);
            kernel.price_indices_into(portfolio.raw_options(), &ids, &mut out);
            sparse_s += tracer.end(span);
            sparse_options += ids.len();
        }
    }
    for (class, sizes) in CLASSES.iter().zip(&sizes) {
        outcome.set(class.affected_us, median(&tracer.durations(class.affected_span)) * 1e6);
        outcome.set(class.affected_mean, sizes.iter().sum::<f64>() / sizes.len().max(1) as f64);
    }
    outcome.set("lanes.sparse_options_per_s", sparse_options as f64 / sparse_s);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(corrupt: bool) -> TickConfig {
        TickConfig { options: 4096, setups: 2, corrupt }
    }

    fn args(trace: bool) -> RunArgs {
        RunArgs { seed: 11, seconds: 0.3, trace, out_dir: std::env::temp_dir() }
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
    fn corrupted_report_is_counted_as_a_failure() {
        let o = run(&args(false), &small(true), &mut Tracer::off());
        assert!(o.failed >= 1, "{o:?}");
        assert!(!o.correct());
    }

    #[test]
    fn schedule_keeps_the_mix_and_repeats_per_seed() {
        let knots = [vec![1, 2, 3], vec![4, 5], vec![6]];
        let mut a = Schedule::new(3, knots.clone());
        let mut b = Schedule::new(3, knots);
        let draws: Vec<_> = (0..200).map(|_| a.next_knot()).collect();
        assert_eq!(draws, (0..200).map(|_| b.next_knot()).collect::<Vec<_>>());
        let count = |c| draws.iter().filter(|d| d.0 == c).count();
        assert_eq!((count(OFF), count(ON), count(HAZARD)), (160, 30, 10));
    }

    #[test]
    fn traced_run_reports_its_layers() {
        let o = run(&args(true), &small(false), &mut Tracer::on());
        assert!(o.correct(), "{o:?}");
        for name in [
            "incremental.apply_ms_p50.offlattice",
            "incremental.hazard_vs_full",
            "portfolio.affected_mean.hazard",
            "portfolio.index_entries",
            "lanes.sparse_options_per_s",
            "engine.build_us",
        ] {
            assert!(o.get(name).is_some_and(|v| v > 0.0), "{name}");
        }
    }
}

//! Incremental tick repricing over the dependency arrangement.
//!
//! ROADMAP item 1: a single hazard- or yield-curve point tick must not
//! force a full batch reprice of 1M+ resident options. The
//! [`IncrementalEngine`] holds the resident book in a
//! [`PortfolioState`] arrangement, ingests *value* ticks against
//! individual curve knots, computes the exact affected set from the
//! arrangement, reprices only those options through the lane kernel's
//! sparse entry point, and emits [`SpreadDelta`]s (old bits → new bits)
//! for the options whose quotes actually moved.
//!
//! # Threaded sparse reprice
//!
//! Hot ticks (hazard knots, on-lattice interest knots) affect hundreds
//! of thousands of options, so their sparse reprice is split across the
//! host's cores ([`cds_cpu::parallel::price_indices_parallel`], one
//! lane kernel per chunk, writing into the reused `repriced` buffer).
//! It splits only while every chunk keeps at least [`MIN_CHUNK`]
//! options: a cold off-lattice tick (a few thousand options) stays on
//! the calling thread, where a scoped spawn would cost more than it
//! saves. The rule is keyed on the affected-set size alone, so it adds
//! no knob. [`IncrementalEngine::insert_batch`] prices through the same
//! entry.
//!
//! [`IncrementalEngine::full_reprice`] deliberately stays one fresh
//! kernel on the calling thread: it is the oracle, and the denominator
//! of the tick-storm gate's tolerance-free speedup floors, which must
//! keep measuring the incremental path against the same single-core
//! full pass.
//!
//! # Bit-identity argument
//!
//! Every result the engine stores is required to be **bit-identical**
//! (`f64::to_bits`, not ULP) to a from-scratch full reprice under the
//! same epoch. That holds structurally, not statistically:
//!
//! 1. A spread is a deterministic pure function of `(engine, option)`,
//!    and the lane kernel is bit-identical to the scalar reference
//!    (pinned by the `lane_vs_scalar` suite).
//! 2. *Affected* options are repriced by that kernel against the
//!    freshly rebuilt engine — definitionally equal to the full
//!    reprice.
//! 3. *Unaffected* options' stored bits stay valid because a value tick
//!    moves no tenor: segment lookup structures depend only on tenors,
//!    interest interpolation at a time outside the ticked knot's
//!    [`crate::portfolio::interest_window`] touches only unchanged
//!    knots, and the cumulative-hazard prefix below the ticked knot is
//!    a left-to-right sum of unchanged terms, hence reproduced
//!    bit-for-bit by the rebuild. The arrangement windows are derived
//!    from the interpolator's own branch structure, so "outside the
//!    window" is exactly "reads no changed input".
//!
//! The differential fuzz suite and the `tick-storm` bench gate verify
//! the claim wholesale against real full reprices.

use crate::error::CdsError;
use crate::portfolio::PortfolioState;
use crate::report::{SpreadDelta, TickReport};
use cds_cpu::parallel::price_indices_parallel;
use cds_cpu::CpuCdsEngine;
use cds_quant::curve::Curve;
use cds_quant::option::{CdsOption, MarketData};

/// Fewest options one thread of a split sparse reprice prices: about
/// 2 ms of single-core lane-kernel work at 7.5M options/s, so a scoped
/// spawn stays under ~2% of its chunk's work.
pub const MIN_CHUNK: usize = 16_384;

/// Threads a sparse reprice of `n` options splits across: the host's
/// cores, capped so every chunk keeps at least [`MIN_CHUNK`] options.
fn reprice_threads(n: usize) -> usize {
    let chunks = n / MIN_CHUNK;
    if chunks < 2 {
        // Asking the OS for the core count costs ~20 µs (it reads the
        // cgroup quota), a few percent of a cold tick that cannot split.
        return 1;
    }
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    chunks.min(cores)
}

/// Which curve a tick targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CurveKind {
    /// The interest (discount) curve.
    Interest,
    /// The hazard (default intensity) curve.
    Hazard,
}

impl CurveKind {
    /// Stable lower-case wire name (`interest` / `hazard`).
    pub fn as_str(self) -> &'static str {
        match self {
            CurveKind::Interest => "interest",
            CurveKind::Hazard => "hazard",
        }
    }

    /// This kind's curve in `market`.
    pub fn curve(self, market: &MarketData<f64>) -> &Curve<f64> {
        match self {
            CurveKind::Interest => &market.interest,
            CurveKind::Hazard => &market.hazard,
        }
    }

    /// This kind's curve in `market`, mutably.
    pub fn curve_mut(self, market: &mut MarketData<f64>) -> &mut Curve<f64> {
        match self {
            CurveKind::Interest => &mut market.interest,
            CurveKind::Hazard => &mut market.hazard,
        }
    }
}

impl std::fmt::Display for CurveKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for CurveKind {
    type Err = &'static str;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "interest" => Ok(CurveKind::Interest),
            "hazard" => Ok(CurveKind::Hazard),
            _ => Err("curve must be `interest` or `hazard`"),
        }
    }
}

/// One curve point tick: replace the *value* at an existing knot.
/// Tenors are immutable — the term structure's shape is fixed at boot,
/// only levels move — which is what keeps unaffected quotes bit-stable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurveTick {
    /// Target curve.
    pub curve: CurveKind,
    /// Knot index into that curve's points.
    pub knot: usize,
    /// New value at the knot.
    pub value: f64,
}

/// Rebuild the curve `tick` targets in `market` with the ticked knot's
/// value replaced and every other point (and all tenors) kept
/// bit-identical, re-validated by [`Curve::new`].
///
/// Returns `Ok(None)` for a zero-delta tick (the knot already holds the
/// value's bits), and `Err` with the reason for a knot out of bounds or
/// a value the curve rejects. Both tick paths share it: the server's
/// epoch swap and [`IncrementalEngine::apply_tick`].
pub fn replace_knot(
    market: &MarketData<f64>,
    tick: CurveTick,
) -> Result<Option<Curve<f64>>, String> {
    let curve = tick.curve.curve(market);
    let Some(old) = curve.points().get(tick.knot) else {
        return Err(format!(
            "knot {} out of bounds for the {} curve ({} knots)",
            tick.knot,
            tick.curve,
            curve.len()
        ));
    };
    if tick.value.to_bits() == old.value.to_bits() {
        return Ok(None);
    }
    let mut points = curve.points().to_vec();
    points[tick.knot].value = tick.value;
    Curve::new(points)
        .map(Some)
        .map_err(|e| format!("curve rejected ticked value {}: {e}", tick.value))
}

/// Resident book plus current epoch's curves and pricing engine, with
/// incremental tick ingestion.
#[derive(Debug, Clone)]
pub struct IncrementalEngine {
    market: MarketData<f64>,
    engine: CpuCdsEngine,
    interest_tenors: Vec<f64>,
    hazard_tenors: Vec<f64>,
    portfolio: PortfolioState,
    /// Stored spread bits, indexed by portfolio id (stale for dead ids).
    spread_bits: Vec<u64>,
    epoch: u64,
    affected: Vec<u32>,
    repriced: Vec<f64>,
}

impl IncrementalEngine {
    /// Boot an empty book over `market` at epoch 0.
    pub fn new(market: MarketData<f64>) -> Self {
        let engine = CpuCdsEngine::new(&market);
        let interest_tenors = market.interest.points().iter().map(|p| p.tenor).collect();
        let hazard_tenors = market.hazard.points().iter().map(|p| p.tenor).collect();
        IncrementalEngine {
            market,
            engine,
            interest_tenors,
            hazard_tenors,
            portfolio: PortfolioState::new(),
            spread_bits: Vec::new(),
            epoch: 0,
            affected: Vec::new(),
            repriced: Vec::new(),
        }
    }

    /// The current epoch's market curves.
    pub fn market(&self) -> &MarketData<f64> {
        &self.market
    }

    /// Current epoch (0 at boot, +1 per ingested tick, including
    /// zero-delta ticks).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of resident options.
    pub fn len(&self) -> usize {
        self.portfolio.len()
    }

    /// True when the book is empty.
    pub fn is_empty(&self) -> bool {
        self.portfolio.is_empty()
    }

    /// The arrangement itself (read access, e.g. for knot selection).
    pub fn portfolio(&self) -> &PortfolioState {
        &self.portfolio
    }

    /// Tenors of one curve (immutable for the engine's lifetime).
    pub fn tenors(&self, curve: CurveKind) -> &[f64] {
        match curve {
            CurveKind::Interest => &self.interest_tenors,
            CurveKind::Hazard => &self.hazard_tenors,
        }
    }

    /// Current value at a curve knot, if the knot exists.
    pub fn curve_value(&self, curve: CurveKind, knot: usize) -> Option<f64> {
        curve.curve(&self.market).points().get(knot).map(|p| p.value)
    }

    /// Insert one option, price it under the current epoch, and return
    /// its stable id.
    ///
    /// # Panics
    /// Panics on an invalid schedule (same wording as the kernels).
    pub fn insert(&mut self, option: CdsOption) -> u32 {
        let id = self.portfolio.insert(option);
        let bits = self.engine.price(&option).spread_bps.to_bits();
        if self.spread_bits.len() <= id as usize {
            self.spread_bits.resize(id as usize + 1, 0);
        }
        self.spread_bits[id as usize] = bits;
        id
    }

    /// Insert a batch, pricing through the threaded sparse reprice
    /// (bit-equal to inserting one by one, far cheaper for large
    /// books). Returns the ids in option order.
    pub fn insert_batch(&mut self, options: &[CdsOption]) -> Vec<u32> {
        let ids: Vec<u32> = options.iter().map(|&o| self.portfolio.insert(o)).collect();
        if self.spread_bits.len() < self.portfolio.slab_len() {
            self.spread_bits.resize(self.portfolio.slab_len(), 0);
        }
        self.reprice(&ids);
        for (&id, &spread) in ids.iter().zip(&self.repriced) {
            self.spread_bits[id as usize] = spread.to_bits();
        }
        ids
    }

    /// Price the residents `ids` under the current engine into
    /// `repriced`, split across cores when the set is large enough.
    fn reprice(&mut self, ids: &[u32]) {
        self.repriced.clear();
        self.repriced.resize(ids.len(), 0.0);
        price_indices_parallel(
            &self.engine,
            self.portfolio.raw_options(),
            ids,
            &mut self.repriced,
            reprice_threads(ids.len()),
        );
    }

    /// Remove a resident option (its spread bits are dropped with it).
    pub fn remove(&mut self, id: u32) -> Option<CdsOption> {
        self.portfolio.remove(id)
    }

    /// Stored spread bits of a live option.
    pub fn spread_bits(&self, id: u32) -> Option<u64> {
        self.portfolio.option(id).map(|_| self.spread_bits[id as usize])
    }

    /// `(id, spread bits)` for every live option, in id order.
    pub fn spreads(&self) -> Vec<(u32, u64)> {
        self.portfolio.iter().map(|(id, _)| (id, self.spread_bits[id as usize])).collect()
    }

    /// Reprice the whole book from scratch (fresh engine, one fresh
    /// kernel on the calling thread) and return `(id, spread bits)` in
    /// id order — the oracle the incremental state is measured against,
    /// and the single-core full pass the tick-storm gate's speedup
    /// floors divide by. It is kept unthreaded on purpose: splitting it
    /// would move the gate's denominator, not the incremental path.
    pub fn full_reprice(&self) -> Vec<(u32, u64)> {
        let engine = CpuCdsEngine::new(&self.market);
        let mut kernel = engine.lane_kernel();
        let ids: Vec<u32> = self.portfolio.iter().map(|(id, _)| id).collect();
        let mut out = Vec::new();
        kernel.price_indices_into(self.portfolio.raw_options(), &ids, &mut out);
        ids.into_iter().zip(out.into_iter().map(f64::to_bits)).collect()
    }

    /// Ingest one curve point tick: publish the new epoch, compute the
    /// affected set from the arrangement, reprice exactly those options
    /// and report the spread deltas.
    ///
    /// The reprice is split across the host's cores when every chunk
    /// keeps at least [`MIN_CHUNK`] options (hazard and on-lattice
    /// ticks on a large book); smaller affected sets are priced on the
    /// calling thread. Either way the stored bits are the ones a full
    /// reprice produces.
    ///
    /// A tick whose value bits equal the current knot value is a
    /// **zero-delta tick**: the epoch still advances, but the affected
    /// set is empty by construction and nothing reprices.
    pub fn apply_tick(&mut self, tick: CurveTick) -> Result<TickReport, CdsError> {
        let rebuilt =
            replace_knot(&self.market, tick).map_err(|reason| CdsError::Tick { reason })?;
        let Some(rebuilt) = rebuilt else {
            self.epoch += 1;
            return Ok(TickReport {
                epoch: self.epoch,
                zero_delta: true,
                affected: 0,
                deltas: Vec::new(),
            });
        };

        // Publish the rebuilt curve and pricing engine. Tenors are
        // untouched, so the arrangement and the unaffected options'
        // stored bits both survive the swap.
        *tick.curve.curve_mut(&mut self.market) = rebuilt;
        self.engine = CpuCdsEngine::new(&self.market);

        let mut affected = std::mem::take(&mut self.affected);
        match tick.curve {
            CurveKind::Interest => {
                self.portfolio.affected_by_interest(&self.interest_tenors, tick.knot, &mut affected)
            }
            CurveKind::Hazard => {
                self.portfolio.affected_by_hazard(&self.hazard_tenors, tick.knot, &mut affected)
            }
        }
        self.reprice(&affected);
        let mut deltas = Vec::new();
        for (&id, &spread) in affected.iter().zip(&self.repriced) {
            let new_bits = spread.to_bits();
            let old_bits = self.spread_bits[id as usize];
            if new_bits != old_bits {
                deltas.push(SpreadDelta { id, old_bits, new_bits });
                self.spread_bits[id as usize] = new_bits;
            }
        }
        self.epoch += 1;
        let report =
            TickReport { epoch: self.epoch, zero_delta: false, affected: affected.len(), deltas };
        self.affected = affected;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_quant::option::PortfolioGenerator;

    fn book(seed: u64, residents: usize) -> IncrementalEngine {
        let mut eng = IncrementalEngine::new(MarketData::paper_workload_sized(seed, 64));
        let options = PortfolioGenerator::new(seed ^ 0x5EED).portfolio(residents);
        eng.insert_batch(&options);
        eng
    }

    fn assert_bits_match_full(eng: &IncrementalEngine, what: &str) {
        assert_eq!(eng.spreads(), eng.full_reprice(), "{what}");
    }

    #[test]
    fn insert_batch_matches_scalar_inserts() {
        let market = MarketData::paper_workload_sized(3, 64);
        let options = PortfolioGenerator::new(5).portfolio(33);
        let mut batched = IncrementalEngine::new(market.clone());
        batched.insert_batch(&options);
        let mut single = IncrementalEngine::new(market);
        for &o in &options {
            single.insert(o);
        }
        assert_eq!(batched.spreads(), single.spreads());
    }

    #[test]
    fn every_knot_tick_stays_bit_equal_to_full_reprice() {
        let mut eng = book(7, 257);
        let mut value_shift = 1.0001;
        for curve in [CurveKind::Interest, CurveKind::Hazard] {
            for knot in 0..eng.tenors(curve).len() {
                let old = eng.curve_value(curve, knot).unwrap_or(0.0);
                let tick = CurveTick { curve, knot, value: old * value_shift + 1e-6 };
                value_shift = -value_shift; // exercise sign changes on interest
                let tick = if curve == CurveKind::Hazard {
                    // Hazard values stay non-negative to keep survival sane.
                    CurveTick { value: old * 1.01 + 1e-6, ..tick }
                } else {
                    tick
                };
                let report = match eng.apply_tick(tick) {
                    Ok(r) => r,
                    Err(e) => panic!("tick {curve} knot {knot}: {e}"),
                };
                assert!(!report.zero_delta);
                assert_bits_match_full(&eng, &format!("{curve} knot {knot}"));
            }
        }
    }

    #[test]
    fn hot_ticks_on_a_book_large_enough_to_split_stay_bit_equal() {
        // Every other test's book is far below MIN_CHUNK, so only this
        // one takes the threaded reprice (on a host with ≥2 cores).
        let residents = 2 * MIN_CHUNK + 123;
        let market = MarketData::paper_workload_sized(23, 64);
        let options = PortfolioGenerator::new(29).portfolio(residents);
        let mut eng = IncrementalEngine::new(market.clone());
        eng.insert_batch(&options);
        let mut single = IncrementalEngine::new(market);
        for &o in &options {
            single.insert(o);
        }
        assert_eq!(eng.spreads(), single.spreads(), "insert_batch vs scalar insert");
        assert_bits_match_full(&eng, "after insert_batch");

        // The on-lattice interest knot with the largest affected set.
        let tenors = eng.tenors(CurveKind::Interest).to_vec();
        let free = eng.portfolio().lattice_free_interest_knots(&tenors);
        let mut probe = eng.portfolio().clone();
        let mut ids = Vec::new();
        let on_lattice = (0..tenors.len())
            .filter(|k| !free.contains(k))
            .max_by_key(|&k| {
                probe.affected_by_interest(&tenors, k, &mut ids);
                ids.len()
            })
            .expect("a paper curve has on-lattice knots");

        for (curve, knot) in [(CurveKind::Hazard, 0), (CurveKind::Interest, on_lattice)] {
            let before: std::collections::HashMap<u32, u64> = eng.spreads().into_iter().collect();
            let old = eng.curve_value(curve, knot).unwrap_or(0.0);
            let report = match eng.apply_tick(CurveTick { curve, knot, value: old * 1.01 + 1e-6 }) {
                Ok(r) => r,
                Err(e) => panic!("{curve} knot {knot}: {e}"),
            };
            assert!(
                report.affected >= 2 * MIN_CHUNK,
                "{curve} knot {knot} affects {} options, too few to split",
                report.affected
            );
            assert!(!report.deltas.is_empty());
            for d in &report.deltas {
                assert_eq!(Some(&d.old_bits), before.get(&d.id), "{curve} knot {knot}");
                assert_eq!(Some(d.new_bits), eng.spread_bits(d.id));
            }
            assert_bits_match_full(&eng, &format!("{curve} knot {knot}"));
        }
    }

    #[test]
    fn zero_delta_tick_is_empty_and_advances_the_epoch() {
        let mut eng = book(11, 64);
        let before = eng.spreads();
        let old = eng.curve_value(CurveKind::Interest, 17).unwrap_or(0.0);
        let report =
            match eng.apply_tick(CurveTick { curve: CurveKind::Interest, knot: 17, value: old }) {
                Ok(r) => r,
                Err(e) => panic!("{e}"),
            };
        assert!(report.zero_delta);
        assert_eq!(report.affected, 0);
        assert!(report.deltas.is_empty());
        assert_eq!(report.epoch, 1);
        assert_eq!(eng.spreads(), before);
    }

    #[test]
    fn deltas_carry_old_and_new_bits() {
        let mut eng = book(13, 128);
        let before = eng.spreads();
        let old = eng.curve_value(CurveKind::Hazard, 0).unwrap_or(0.0);
        let report =
            match eng.apply_tick(CurveTick { curve: CurveKind::Hazard, knot: 0, value: old * 2.0 })
            {
                Ok(r) => r,
                Err(e) => panic!("{e}"),
            };
        // A front-of-curve hazard tick moves (essentially) every quote.
        assert!(!report.deltas.is_empty());
        assert!(report.deltas.len() <= report.affected);
        let before: std::collections::HashMap<u32, u64> = before.into_iter().collect();
        for d in &report.deltas {
            assert_eq!(Some(&d.old_bits), before.get(&d.id));
            assert_eq!(Some(d.new_bits), eng.spread_bits(d.id));
            assert_ne!(d.old_bits, d.new_bits);
        }
    }

    #[test]
    fn removed_options_never_reappear_in_deltas() {
        let mut eng = book(17, 96);
        let victims: Vec<u32> = eng.spreads().iter().map(|&(id, _)| id).take(48).collect();
        for id in victims {
            assert!(eng.remove(id).is_some());
        }
        let old = eng.curve_value(CurveKind::Hazard, 0).unwrap_or(0.0);
        let report =
            match eng.apply_tick(CurveTick { curve: CurveKind::Hazard, knot: 0, value: old * 3.0 })
            {
                Ok(r) => r,
                Err(e) => panic!("{e}"),
            };
        let live: std::collections::HashSet<u32> =
            eng.spreads().iter().map(|&(id, _)| id).collect();
        for d in &report.deltas {
            assert!(live.contains(&d.id));
        }
        assert_bits_match_full(&eng, "after removals + tick");
    }

    #[test]
    fn invalid_ticks_are_typed_errors() {
        let mut eng = book(19, 8);
        let oob =
            eng.apply_tick(CurveTick { curve: CurveKind::Interest, knot: 10_000, value: 0.1 });
        assert!(matches!(oob, Err(CdsError::Tick { .. })), "{oob:?}");
        let nan = eng.apply_tick(CurveTick { curve: CurveKind::Hazard, knot: 0, value: f64::NAN });
        assert!(matches!(nan, Err(CdsError::Tick { .. })), "{nan:?}");
        // The failed ticks published nothing.
        assert_bits_match_full(&eng, "after rejected ticks");
    }

    #[test]
    fn curve_kind_wire_round_trip() {
        for kind in [CurveKind::Interest, CurveKind::Hazard] {
            assert_eq!(kind.as_str().parse::<CurveKind>(), Ok(kind));
        }
        assert!("INTEREST".parse::<CurveKind>().is_err());
    }
}

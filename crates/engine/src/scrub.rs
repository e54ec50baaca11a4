//! Result-integrity scrubber: guard, quarantine and reprice.
//!
//! The dataflow engine's spread outputs pass through three independent
//! defences before they are reported:
//!
//! 1. **Invariant guards** ([`cds_quant::invariant`]) — every spread must
//!    be finite, non-negative and inside the recovery-adjusted hazard
//!    envelope of its own option. A violation is not a plausible pricing
//!    output; it is corruption.
//! 2. **Taint tracking** — corruption faults recorded by the dataflow
//!    simulator carry the identity of the option whose token they
//!    mutated ([`dataflow_sim::fault::FaultEvent`]), so even a *subtle*
//!    corruption that stays inside the envelope is quarantined.
//! 3. **Sampled cross-checks** — every `k`-th output is re-priced on the
//!    CPU reference path and compared, catching systematic numerical
//!    drift that neither of the above can see.
//!
//! Quarantined options are **repriced on the CPU fallback engine**
//! ([`cds_cpu::CpuCdsEngine`]) — the same independent implementation the
//! multi-engine failover uses — and the repriced value replaces the
//! corrupt one, so a chaos run with corruption faults converges to the
//! fault-free spreads.

use crate::error::CdsError;
use cds_cpu::CpuCdsEngine;
use cds_quant::invariant::{check_result, check_spread_bps, spread_envelope_bps};
use cds_quant::option::{CdsOption, MarketData};
use dataflow_sim::fault::{FaultEvent, FaultKind};

/// Relative tolerance of the sampled CPU cross-check. Both the dataflow
/// engine and the CPU engine agree with the reference pricer within
/// `1e-7·(1+s)`, so an honest pair differs by at most twice that.
pub const CROSS_CHECK_REL_TOL: f64 = 1e-6;

/// Configuration of the scrubber.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScrubPolicy {
    /// Cross-check every `k`-th completed option against the CPU
    /// reference path even when every guard passes (`0` disables the
    /// sampled cross-check; guards and taint tracking still run).
    pub cross_check_every: usize,
}

impl Default for ScrubPolicy {
    fn default() -> Self {
        ScrubPolicy { cross_check_every: 16 }
    }
}

/// Option indices whose tokens a corruption fault mutated, in event
/// order: the taint set handed to [`scrub_spreads`]. Indices are those
/// the run's tokens carried (see [`crate::tokens::tag_fault_plan`]).
pub fn corrupted_options(events: &[FaultEvent]) -> impl Iterator<Item = u32> + '_ {
    events.iter().filter(|e| e.kind == FaultKind::Corrupt).filter_map(|e| e.opt_idx)
}

/// One quarantined option: why it was rejected and what replaced it.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantineRecord {
    /// Original index of the quarantined option.
    pub option_index: u32,
    /// Human-readable reason (guard violation, taint, or cross-check).
    pub reason: String,
    /// The spread the engine produced.
    pub engine_bps: f64,
    /// The CPU-repriced spread that replaced it.
    pub repriced_bps: f64,
}

/// Outcome of one scrub pass.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScrubReport {
    /// Options whose spreads were guarded.
    pub options_checked: u64,
    /// Options re-priced on the CPU path by the sampled cross-check.
    pub cross_checked: u64,
    /// Options quarantined and repriced (`quarantined.len()`).
    pub options_quarantined: u64,
    /// Per-option quarantine details.
    pub quarantined: Vec<QuarantineRecord>,
}

impl ScrubReport {
    /// Original indices of the quarantined options, ascending.
    #[must_use]
    pub fn quarantined_indices(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.quarantined.iter().map(|q| q.option_index).collect();
        v.sort_unstable();
        v
    }
}

/// Scrub a set of priced options in place.
///
/// `priced` holds `(original option index, spread_bps)` pairs; `tainted`
/// lists original indices named by corruption fault events. Each entry is
/// guarded against its option's invariants, quarantined if tainted, and
/// sampled for a CPU cross-check; quarantined entries are overwritten
/// with the CPU reprice.
pub fn scrub_spreads(
    market: &MarketData<f64>,
    options: &[CdsOption],
    priced: &mut [(u32, f64)],
    tainted: &[u32],
    policy: &ScrubPolicy,
) -> Result<ScrubReport, CdsError> {
    let cpu = CpuCdsEngine::new(market);
    let mut report = ScrubReport::default();
    for (slot, entry) in priced.iter_mut().enumerate() {
        let (idx, spread) = *entry;
        let option = options
            .get(idx as usize)
            .ok_or(CdsError::Config { reason: "scrubbed option index out of range" })?;
        report.options_checked += 1;

        let envelope = spread_envelope_bps(market, option);
        let mut reason: Option<String> = None;
        if let Err(violation) = check_spread_bps(spread, envelope) {
            reason = Some(violation.to_string());
        } else if tainted.contains(&idx) {
            reason = Some("corruption fault recorded on this option's tokens".to_string());
        }

        let sampled = policy.cross_check_every > 0 && slot % policy.cross_check_every == 0;
        if reason.is_none() && !sampled {
            continue;
        }

        // CPU reprice: both the cross-check reference and the fallback
        // value. Validate it against its own legs before trusting it.
        let repriced = cpu.price(option);
        if check_result(&repriced, option.recovery_rate).is_err() {
            return Err(CdsError::Config { reason: "CPU reprice failed its own invariants" });
        }
        if reason.is_none() {
            report.cross_checked += 1;
            let tol = CROSS_CHECK_REL_TOL * (1.0 + repriced.spread_bps.abs());
            if (spread - repriced.spread_bps).abs() > tol {
                reason = Some(format!(
                    "cross-check mismatch: engine {spread} vs cpu {} bps",
                    repriced.spread_bps
                ));
            }
        }
        if let Some(reason) = reason {
            entry.1 = repriced.spread_bps;
            report.quarantined.push(QuarantineRecord {
                option_index: idx,
                reason,
                engine_bps: spread,
                repriced_bps: repriced.spread_bps,
            });
        }
    }
    report.options_quarantined = report.quarantined.len() as u64;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_quant::cds::CdsPricer;
    use cds_quant::option::{PaymentFrequency, PortfolioGenerator};

    fn ok<T>(r: Result<T, CdsError>) -> T {
        match r {
            Ok(v) => v,
            Err(e) => panic!("unexpected scrub error: {e}"),
        }
    }

    fn workload(n: usize) -> (MarketData<f64>, Vec<CdsOption>, Vec<(u32, f64)>) {
        let market = MarketData::paper_workload(42);
        let options = PortfolioGenerator::uniform(n, 5.5, PaymentFrequency::Quarterly, 0.40);
        let pricer = CdsPricer::new(market.clone());
        let priced = options
            .iter()
            .enumerate()
            .map(|(i, o)| (i as u32, pricer.price(o).spread_bps))
            .collect();
        (market, options, priced)
    }

    #[test]
    fn clean_run_passes_unquarantined() {
        let (market, options, mut priced) = workload(16);
        let before = priced.clone();
        let report =
            ok(scrub_spreads(&market, &options, &mut priced, &[], &ScrubPolicy::default()));
        assert_eq!(report.options_checked, 16);
        assert_eq!(report.options_quarantined, 0);
        assert!(report.cross_checked >= 1, "default policy samples slot 0");
        assert_eq!(priced, before, "clean spreads must pass through untouched");
    }

    #[test]
    fn guard_violation_is_quarantined_and_repriced() {
        let (market, options, mut priced) = workload(8);
        let golden = priced[3].1;
        priced[3].1 = -golden; // Negative spread: impossible output.
        let report =
            ok(scrub_spreads(&market, &options, &mut priced, &[], &ScrubPolicy::default()));
        assert_eq!(report.quarantined_indices(), vec![3]);
        assert!(report.quarantined[0].reason.contains("negative"));
        assert!((priced[3].1 - golden).abs() < 1e-6 * (1.0 + golden), "repriced to golden");
    }

    #[test]
    fn tainted_option_is_repriced_even_when_plausible() {
        let (market, options, mut priced) = workload(8);
        let golden = priced[5].1;
        priced[5].1 = golden + 0.5; // Inside the envelope: guards can't see it.
        let no_taint = ok(scrub_spreads(
            &market,
            &options,
            &mut priced.clone(),
            &[],
            &ScrubPolicy { cross_check_every: 0 },
        ));
        assert_eq!(no_taint.options_quarantined, 0, "subtle corruption evades the guards");
        let report = ok(scrub_spreads(
            &market,
            &options,
            &mut priced,
            &[5],
            &ScrubPolicy { cross_check_every: 0 },
        ));
        assert_eq!(report.quarantined_indices(), vec![5]);
        assert!((priced[5].1 - golden).abs() < 1e-6 * (1.0 + golden));
    }

    #[test]
    fn sampled_cross_check_catches_subtle_corruption() {
        let (market, options, mut priced) = workload(4);
        let golden = priced[0].1;
        priced[0].1 = golden + 0.5;
        let report = ok(scrub_spreads(
            &market,
            &options,
            &mut priced,
            &[],
            &ScrubPolicy { cross_check_every: 1 },
        ));
        assert_eq!(report.quarantined_indices(), vec![0]);
        assert!(report.quarantined[0].reason.contains("cross-check"));
        assert_eq!(report.cross_checked, 4, "every slot is sampled at cadence 1");
    }

    #[test]
    fn out_of_range_index_is_a_typed_error() {
        let (market, options, _) = workload(2);
        let mut priced = vec![(9u32, 100.0f64)];
        let err = scrub_spreads(&market, &options, &mut priced, &[], &ScrubPolicy::default());
        assert!(matches!(err, Err(CdsError::Config { .. })), "got {err:?}");
    }
}

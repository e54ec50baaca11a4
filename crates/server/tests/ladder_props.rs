//! Property tests for the serving robustness invariants.
//!
//! 1. The degradation ladder is **monotone**: worse telemetry never
//!    yields a healthier target, the ladder never skips a rung in
//!    either direction, and recovery retraces the rungs in order.
//! 2. Hedged retries never double-count a spread: for any storm of
//!    duplicate attempts the [`QuoteLedger`] elects exactly one
//!    canonical spread per request id — the first one recorded.

use cds_server::hedge::{QuoteLedger, RecordOutcome};
use cds_server::ladder::{DegradationLadder, LadderConfig, LadderTelemetry, Rung};
use proptest::prelude::*;

fn telemetry_strategy() -> impl Strategy<Value = LadderTelemetry> {
    (0u64..200, 1u64..200, 0usize..5, 1usize..5, 0u32..2).prop_map(
        |(depth, capacity, dead, total, degraded)| LadderTelemetry {
            queue_depth: depth,
            queue_capacity: capacity,
            shards_dead: dead.min(total),
            shards_total: total,
            wal_degraded: degraded == 1,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Worsening any telemetry dimension never improves the target rung.
    #[test]
    fn target_is_monotone_in_telemetry(
        t in telemetry_strategy(),
        extra_depth in 0u64..100,
        extra_dead in 0usize..4,
        extra_degraded in 0u32..2,
    ) {
        let config = LadderConfig::default();
        let worse = LadderTelemetry {
            queue_depth: t.queue_depth + extra_depth,
            shards_dead: (t.shards_dead + extra_dead).min(t.shards_total),
            wal_degraded: t.wal_degraded || extra_degraded == 1,
            ..t
        };
        let base = DegradationLadder::target(&t, &config);
        let degraded = DegradationLadder::target(&worse, &config);
        prop_assert!(
            degraded >= base,
            "worse telemetry {worse:?} gave healthier target {degraded:?} than {t:?} ({base:?})"
        );
    }

    /// Whatever telemetry arrives, the rung moves at most one step per
    /// observation — no rung is ever skipped in either direction.
    #[test]
    fn ladder_never_skips_a_rung(
        observations in proptest::collection::vec(telemetry_strategy(), 1..80),
        recovery in 1u32..5,
    ) {
        let config = LadderConfig { recovery_observations: recovery, ..Default::default() };
        let mut ladder = DegradationLadder::new(config).expect("valid config");
        let mut prev = ladder.rung();
        for t in &observations {
            let next = ladder.observe(t);
            let step = (next.index() as i64 - prev.index() as i64).abs();
            prop_assert!(step <= 1, "ladder jumped {prev:?} -> {next:?} on {t:?}");
            prev = next;
        }
    }

    /// Degrading to the worst rung and then going calm recovers through
    /// every rung in order: 3 → 2 → 1 → 0, each drop only after the
    /// configured number of calm observations.
    #[test]
    fn recovery_retraces_rungs_in_order(recovery in 1u32..6) {
        let config = LadderConfig { recovery_observations: recovery, ..Default::default() };
        let mut ladder = DegradationLadder::new(config).expect("valid config");
        let saturated = LadderTelemetry {
            queue_depth: 100,
            queue_capacity: 100,
            shards_dead: 0,
            shards_total: 4,
            wal_degraded: false,
        };
        let calm = LadderTelemetry { queue_depth: 0, ..saturated };
        for expected in [Rung::ShedLowPriority, Rung::CpuFallback, Rung::RejectRetryAfter] {
            prop_assert_eq!(ladder.observe(&saturated), expected);
        }
        let mut seen = vec![ladder.rung()];
        for _ in 0..(4 * recovery + 4) {
            let r = ladder.observe(&calm);
            if r != *seen.last().expect("nonempty") {
                seen.push(r);
            }
        }
        prop_assert_eq!(
            seen,
            vec![
                Rung::RejectRetryAfter,
                Rung::CpuFallback,
                Rung::ShedLowPriority,
                Rung::Healthy,
            ]
        );
        // And each individual drop waited for the full calm streak:
        // total calm observations consumed >= 3 * recovery.
        let mut ladder = DegradationLadder::new(config).expect("valid config");
        for _ in 0..3 {
            ladder.observe(&saturated);
        }
        let mut calm_count = 0u32;
        while ladder.rung() != Rung::Healthy {
            ladder.observe(&calm);
            calm_count += 1;
            prop_assert!(calm_count <= 3 * recovery, "recovery overshot the hysteresis budget");
        }
        prop_assert_eq!(calm_count, 3 * recovery);
    }

    /// For any storm of attempts — original, retries, hedges, client
    /// re-sends, across tenants — each `(tenant, id)` key is counted
    /// exactly once and the canonical spread is the first recorded, so
    /// aggregate accounting (sums over canonical spreads) is
    /// storm-invariant. Tenants reusing each other's ids never collide.
    #[test]
    fn hedged_retries_never_double_count_a_spread(
        attempts in proptest::collection::vec((0u64..3, 0u64..24, -1e6f64..1e6), 1..200),
    ) {
        let ledger = QuoteLedger::new();
        let mut firsts: std::collections::HashMap<(u64, u64), f64> =
            std::collections::HashMap::new();
        let mut wins = 0u64;
        for &(tenant, id, spread) in &attempts {
            firsts.entry((tenant, id)).or_insert(spread);
            match ledger.record(tenant, id, spread) {
                RecordOutcome::First => wins += 1,
                RecordOutcome::Duplicate { canonical } => {
                    // Every duplicate echoes the first spread recorded
                    // by the *same tenant*, not its own and never
                    // another tenant's.
                    prop_assert_eq!(canonical.to_bits(), firsts[&(tenant, id)].to_bits());
                }
            }
        }
        prop_assert_eq!(wins as usize, firsts.len(), "one win per unique (tenant, id)");
        prop_assert_eq!(ledger.len(), firsts.len());
        prop_assert_eq!(
            ledger.duplicates_suppressed() as usize,
            attempts.len() - firsts.len()
        );
        // The canonical aggregate equals the sum over first attempts.
        let canonical_sum: f64 =
            firsts.keys().filter_map(|&(t, id)| ledger.get(t, id)).sum();
        let expected_sum: f64 = firsts.values().sum();
        prop_assert_eq!(canonical_sum.to_bits(), expected_sum.to_bits());
    }
}

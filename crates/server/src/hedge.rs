//! The idempotence ledger behind deadline-aware retries and hedging.
//!
//! Retries and hedged attempts mean the same logical quote can be
//! priced more than once — by different shards, concurrently, possibly
//! on either side of a curve tick. The ledger makes that safe: the
//! **first** recorded answer for a request id wins, every later attempt
//! is suppressed, and duplicate client sends of the same id are
//! answered from the ledger without re-counting. The server's answer is
//! the `(spread, epoch)` pair, so every reply for an id echoes the
//! winning spread and the epoch it was priced under. "Never
//! double-count a spread" is the property `tests/ladder_props.rs`
//! hammers with racing recorders.
//!
//! Entries are keyed by `(tenant slot, request id)`, not by id alone:
//! request ids are client-chosen, so a hostile tenant could otherwise
//! pre-claim another tenant's id space and have the victim served the
//! attacker's cached spreads (wrong parameters, cross-tenant leak).
//! Idempotence is a per-tenant contract.
//!
//! The ledger is bounded in time: an answer is swept once it is older
//! than `window`, and sweeps run once per window, so an answer stays
//! canonical for at least one window and is gone after two. The server
//! sets the window to its retry deadline budget, past which no attempt
//! of a quote is still racing.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::lock_recover;

/// Outcome of [`QuoteLedger::record`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecordOutcome<V = f64> {
    /// This attempt won: its answer is now the canonical one.
    First,
    /// A previous attempt already answered this id; `canonical` is the
    /// answer the duplicate must echo (not its own).
    Duplicate {
        /// The canonical answer recorded by the winning attempt.
        canonical: V,
    },
}

/// Answers with the instant each was recorded, and the last sweep.
#[derive(Debug)]
struct Answers<V> {
    map: HashMap<(u64, u64), (V, Instant)>,
    swept: Instant,
}

/// `(tenant slot, request id)` → canonical answer map with duplicate
/// accounting; answers are `f64` spreads unless stated otherwise.
#[derive(Debug)]
pub struct QuoteLedger<V = f64> {
    window: Duration,
    answers: Mutex<Answers<V>>,
    duplicates_suppressed: AtomicU64,
}

impl<V: Copy> Default for QuoteLedger<V> {
    fn default() -> Self {
        QuoteLedger::with_window(Duration::MAX)
    }
}

impl<V: Copy> QuoteLedger<V> {
    /// An empty ledger that never forgets an answer.
    pub fn new() -> Self {
        QuoteLedger::default()
    }

    /// An empty ledger whose answers live one to two `window`s.
    pub fn with_window(window: Duration) -> Self {
        let answers = Answers { map: HashMap::new(), swept: Instant::now() };
        QuoteLedger {
            window,
            answers: Mutex::new(answers),
            duplicates_suppressed: AtomicU64::new(0),
        }
    }

    /// The answers as of `now`, swept if a window has passed since the
    /// last sweep.
    fn answers(&self, now: Instant) -> MutexGuard<'_, Answers<V>> {
        let mut answers = lock_recover(&self.answers);
        if now.saturating_duration_since(answers.swept) >= self.window {
            answers.map.retain(|_, (_, at)| now.saturating_duration_since(*at) < self.window);
            answers.swept = now;
        }
        answers
    }

    /// Record an attempt's answer for `id` within `tenant`'s id space.
    /// Exactly one concurrent caller per key ever sees
    /// [`RecordOutcome::First`]; everyone else gets the canonical
    /// answer back.
    pub fn record(&self, tenant: u64, id: u64, answer: V) -> RecordOutcome<V> {
        self.record_at(tenant, id, answer, Instant::now())
    }

    fn record_at(&self, tenant: u64, id: u64, answer: V, now: Instant) -> RecordOutcome<V> {
        match self.answers(now).map.entry((tenant, id)) {
            Entry::Vacant(slot) => {
                slot.insert((answer, now));
                RecordOutcome::First
            }
            Entry::Occupied(slot) => {
                self.duplicates_suppressed.fetch_add(1, Ordering::Relaxed);
                RecordOutcome::Duplicate { canonical: slot.get().0 }
            }
        }
    }

    /// The canonical answer for `id` in `tenant`'s id space, if one was
    /// recorded and not yet swept.
    pub fn get(&self, tenant: u64, id: u64) -> Option<V> {
        self.answers(Instant::now()).map.get(&(tenant, id)).map(|&(answer, _)| answer)
    }

    /// Distinct `(tenant, id)` keys currently held.
    pub fn len(&self) -> usize {
        lock_recover(&self.answers).map.len()
    }

    /// Whether the ledger holds no answer.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many duplicate attempts were suppressed so far.
    pub fn duplicates_suppressed(&self) -> u64 {
        self.duplicates_suppressed.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn first_wins_and_duplicates_echo_the_canonical_spread() {
        let ledger = QuoteLedger::new();
        assert_eq!(ledger.record(0, 7, 101.5), RecordOutcome::First);
        assert_eq!(ledger.record(0, 7, 999.0), RecordOutcome::Duplicate { canonical: 101.5 });
        assert_eq!(ledger.get(0, 7), Some(101.5));
        assert_eq!(ledger.len(), 1);
        assert_eq!(ledger.duplicates_suppressed(), 1);
    }

    #[test]
    fn duplicates_carry_the_first_attempts_epoch() {
        // A hedge/original pair straddling a tick: the later attempt
        // priced under epoch 4 must echo the winner's spread AND epoch.
        let ledger: QuoteLedger<(f64, u64)> = QuoteLedger::new();
        assert_eq!(ledger.record(0, 7, (101.5, 3)), RecordOutcome::First);
        assert_eq!(
            ledger.record(0, 7, (99.25, 4)),
            RecordOutcome::Duplicate { canonical: (101.5, 3) }
        );
        assert_eq!(ledger.get(0, 7), Some((101.5, 3)));
    }

    #[test]
    fn entries_live_one_to_two_windows() {
        let window = Duration::from_millis(250);
        let ledger = QuoteLedger::with_window(window);
        let t0 = lock_recover(&ledger.answers).swept;
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        assert_eq!(ledger.record_at(0, 1, 1.0, at(100)), RecordOutcome::First);
        // Still canonical just short of one window after recording,
        // across the sweep this call triggers.
        let dup = ledger.record_at(0, 1, 9.0, at(349));
        assert_eq!(dup, RecordOutcome::Duplicate { canonical: 1.0 });
        assert_eq!(ledger.record_at(0, 2, 2.0, at(400)), RecordOutcome::First);
        // The next sweep (599 ms, within two windows of recording)
        // drops it, so the id prices afresh; the younger entry stays.
        assert_eq!(ledger.record_at(0, 1, 3.0, at(599)), RecordOutcome::First);
        let dup = ledger.record_at(0, 2, 9.0, at(599));
        assert_eq!(dup, RecordOutcome::Duplicate { canonical: 2.0 });
        assert_eq!(ledger.len(), 2);
        // A long quiet spell drops everything at the next sweep.
        assert_eq!(ledger.record_at(0, 2, 4.0, at(5_000)), RecordOutcome::First);
        assert_eq!(ledger.len(), 1);
        assert_eq!(ledger.duplicates_suppressed(), 2);
    }

    #[test]
    fn tenants_have_disjoint_id_spaces() {
        let ledger = QuoteLedger::new();
        assert_eq!(ledger.record(0, 7, 101.5), RecordOutcome::First);
        // A different tenant reusing the same id is NOT a duplicate:
        // it must never be served tenant 0's cached spread.
        assert_eq!(ledger.record(1, 7, 55.25), RecordOutcome::First);
        assert_eq!(ledger.get(0, 7), Some(101.5));
        assert_eq!(ledger.get(1, 7), Some(55.25));
        assert_eq!(ledger.get(2, 7), None);
        assert_eq!(ledger.duplicates_suppressed(), 0);
    }

    #[test]
    fn racing_recorders_elect_exactly_one_winner_per_id() {
        let ledger = Arc::new(QuoteLedger::new());
        let ids = 32u64;
        let racers = 8;
        let mut joins = Vec::new();
        for racer in 0..racers {
            let ledger = ledger.clone();
            joins.push(std::thread::spawn(move || {
                let mut wins = 0u64;
                for id in 0..ids {
                    if let RecordOutcome::First = ledger.record(0, id, racer as f64) {
                        wins += 1;
                    }
                }
                wins
            }));
        }
        let total_wins: u64 = joins.into_iter().map(|j| j.join().expect("racer")).sum();
        assert_eq!(total_wins, ids, "every id has exactly one winning attempt");
        assert_eq!(ledger.len(), ids as usize);
        assert_eq!(ledger.duplicates_suppressed(), ids * (racers - 1));
    }
}

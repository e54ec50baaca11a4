//! Deterministic-interleaving tests for the server's two lock-light
//! publish protocols.
//!
//! Neither test relies on the scheduler getting "lucky": instead of
//! hoping a stress run hits the bad window, they **enumerate every
//! interleaving** of the racing operations at linearization
//! granularity (every merge order of the publisher's and the readers'
//! call sequences; every permutation of the racing recorders) and
//! assert the protocol invariants after *each* step. A threaded run
//! with a seeded stagger rides along for each protocol so the real
//! atomics are exercised too.
//!
//! Invariants held:
//! * [`CurveBook`] epoch-swap publish — a reader's cached snapshot
//!   never goes backwards, is never torn (its curves always belong to
//!   its epoch), and `refresh` reports a replacement exactly when the
//!   published epoch moved.
//! * [`QuoteLedger`] single-election — for any arrival order of racing
//!   recorders, exactly one attempt per `(tenant, id)` wins, the
//!   canonical spread is the first arrival's (bit-exact), and every
//!   later attempt is told the canonical value, never its own.

use cds_server::hedge::{QuoteLedger, RecordOutcome};
use cds_server::snapshot::CurveBook;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

/// All ways to choose which of `total` steps belong to the publisher
/// (the rest are reader steps), i.e. every merge order of the two
/// operation sequences.
fn interleavings(total: u32, publisher_steps: u32) -> Vec<Vec<bool>> {
    let mut out = Vec::new();
    for mask in 0u32..(1 << total) {
        if mask.count_ones() != publisher_steps {
            continue;
        }
        out.push((0..total).map(|i| mask & (1 << i) != 0).collect());
    }
    out
}

/// Seed scheme: epoch `e` is always published from seed `e + 1000`, so
/// a torn snapshot (curves from one epoch, number from another) is
/// detectable from the snapshot alone.
const SEED_BASE: u64 = 1000;

#[test]
fn every_publish_read_interleaving_keeps_snapshots_consistent() {
    const PUBLISHES: u32 = 3;
    const READS: u32 = 3;
    let schedules = interleavings(PUBLISHES + READS, PUBLISHES);
    assert_eq!(schedules.len(), 20, "C(6,3) merge orders");
    for schedule in schedules {
        let book = CurveBook::new(SEED_BASE);
        let mut cached = book.current();
        let mut published = 0u64;
        for &is_publish in &schedule {
            if is_publish {
                published += 1;
                assert_eq!(book.publish(published + SEED_BASE), published);
            } else {
                let before = cached.epoch;
                let replaced = book.refresh(&mut cached);
                // refresh reports a replacement exactly when the epoch
                // moved past the cache.
                assert_eq!(replaced, before != published, "schedule {schedule:?}");
                // Reads are monotone and never observe a torn snapshot.
                assert!(cached.epoch >= before, "schedule {schedule:?}");
                assert_eq!(cached.epoch, published, "schedule {schedule:?}");
                assert_eq!(cached.seed, cached.epoch + SEED_BASE, "schedule {schedule:?}");
            }
        }
        // However the schedule ended, one final refresh converges.
        book.refresh(&mut cached);
        assert_eq!(cached.epoch, published);
        assert_eq!(book.epoch(), published);
    }
}

#[test]
fn staggered_threaded_readers_never_see_a_torn_or_backwards_snapshot() {
    const READERS: usize = 4;
    const TICKS: u64 = 32;
    let book = Arc::new(CurveBook::new(SEED_BASE));
    let gate = Arc::new(Barrier::new(READERS + 1));
    let stop = Arc::new(AtomicU64::new(0));
    let mut joins = Vec::new();
    for reader in 0..READERS {
        let book = book.clone();
        let gate = gate.clone();
        let stop = stop.clone();
        joins.push(thread::spawn(move || {
            let mut cached = book.current();
            let mut last = cached.epoch;
            gate.wait();
            while stop.load(Ordering::Relaxed) == 0 {
                book.refresh(&mut cached);
                assert!(cached.epoch >= last, "reader {reader} went backwards");
                assert_eq!(cached.seed, cached.epoch + SEED_BASE, "reader {reader} torn");
                last = cached.epoch;
                // Deterministic per-reader stagger so the readers hit
                // the publish window at different phases.
                for _ in 0..(reader * 7) {
                    std::hint::spin_loop();
                }
            }
        }));
    }
    gate.wait();
    for tick in 1..=TICKS {
        assert_eq!(book.publish(tick + SEED_BASE), tick);
    }
    stop.store(1, Ordering::Relaxed);
    for j in joins {
        j.join().expect("reader thread");
    }
    assert_eq!(book.epoch(), TICKS);
}

/// Heap's algorithm: every permutation of `items`.
fn permutations<T: Clone>(items: &[T]) -> Vec<Vec<T>> {
    fn heap<T: Clone>(k: usize, arr: &mut Vec<T>, out: &mut Vec<Vec<T>>) {
        if k <= 1 {
            out.push(arr.clone());
            return;
        }
        for i in 0..k {
            heap(k - 1, arr, out);
            if k.is_multiple_of(2) {
                arr.swap(i, k - 1);
            } else {
                arr.swap(0, k - 1);
            }
        }
    }
    let mut arr = items.to_vec();
    let mut out = Vec::new();
    heap(arr.len(), &mut arr, &mut out);
    out
}

#[test]
fn every_recorder_arrival_order_elects_exactly_one_canonical_spread() {
    // Two contended keys (one shared across "hedge" attempts, one
    // cross-tenant with a colliding id) plus an uncontended one.
    let attempts: Vec<(u64, u64, f64)> =
        vec![(0, 7, 101.25), (0, 7, 99.5), (0, 7, 103.0), (1, 7, 55.0), (0, 8, 42.0)];
    let perms = permutations(&attempts);
    assert_eq!(perms.len(), 120);
    for order in perms {
        let ledger = QuoteLedger::new();
        let mut first: std::collections::HashMap<(u64, u64), f64> =
            std::collections::HashMap::new();
        let mut wins = 0usize;
        for &(tenant, id, spread) in &order {
            let canonical = *first.entry((tenant, id)).or_insert(spread);
            match ledger.record(tenant, id, spread) {
                RecordOutcome::First => {
                    wins += 1;
                    assert_eq!(spread.to_bits(), canonical.to_bits(), "order {order:?}");
                }
                RecordOutcome::Duplicate { canonical: echoed } => {
                    // A loser is told the canonical spread, never its own.
                    assert_eq!(echoed.to_bits(), canonical.to_bits(), "order {order:?}");
                }
            }
        }
        assert_eq!(wins, first.len(), "one win per key in {order:?}");
        assert_eq!(ledger.duplicates_suppressed() as usize, order.len() - first.len());
        for (&(tenant, id), &canonical) in &first {
            let got = ledger.get(tenant, id).expect("recorded key");
            assert_eq!(got.to_bits(), canonical.to_bits(), "order {order:?}");
        }
    }
}

#[test]
fn threaded_racing_recorders_all_agree_on_one_winner() {
    const RACERS: usize = 8;
    let ledger = Arc::new(QuoteLedger::new());
    let gate = Arc::new(Barrier::new(RACERS));
    let mut joins = Vec::new();
    for racer in 0..RACERS {
        let ledger = ledger.clone();
        let gate = gate.clone();
        joins.push(thread::spawn(move || {
            let mine = 100.0 + racer as f64;
            gate.wait();
            match ledger.record(0, 7, mine) {
                RecordOutcome::First => (true, mine),
                RecordOutcome::Duplicate { canonical } => (false, canonical),
            }
        }));
    }
    let outcomes: Vec<(bool, f64)> = joins.into_iter().map(|j| j.join().expect("racer")).collect();
    let winners: Vec<f64> = outcomes.iter().filter(|(won, _)| *won).map(|&(_, s)| s).collect();
    assert_eq!(winners.len(), 1, "exactly one election winner");
    let canonical = winners[0];
    // Every racer — winner or loser — walked away with the same spread,
    // and it is one actually submitted.
    for &(_, seen) in &outcomes {
        assert_eq!(seen.to_bits(), canonical.to_bits());
    }
    assert!((0..RACERS).any(|r| canonical.to_bits() == (100.0 + r as f64).to_bits()));
    assert_eq!(ledger.duplicates_suppressed() as usize, RACERS - 1);
    assert_eq!(ledger.get(0, 7).expect("recorded").to_bits(), canonical.to_bits());
}

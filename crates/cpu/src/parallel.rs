//! Multi-threaded batch pricing — the OpenMP analogue.
//!
//! Options are independent, so a batch is split into contiguous chunks
//! priced by `std::thread::scope` threads, exactly mirroring the paper's
//! decomposition for both the OpenMP CPU code and the multi-engine FPGA
//! deployment ("there are no dependencies between calculations involving
//! different options").
//!
//! Both entry points run one body. The output slice is cut into
//! balanced chunks (sizes differ by at most one), each chunk gets its
//! own [`LaneKernel`] and writes its spreads straight into its part of
//! the caller's output, so no per-chunk buffer or final concatenation
//! exists. `threads - 1` chunks go to scoped threads and the last one
//! is priced on the calling thread. The thread-level and lane-level
//! parallelism compose, and the result is bit-for-bit the sequential
//! kernel's: a spread depends only on `(engine, option)`.
//!
//! * [`price_parallel_stats`] — the dense case: position `j` is
//!   `options[j]` (the batch-reprice path).
//! * [`price_indices_parallel`] — the sparse case: position `j` is
//!   `options[indices[j]]` (the incremental engine's hot ticks).

use crate::engine::{CpuBatchStats, CpuCdsEngine};
use crate::lanes::LaneKernel;
use cds_quant::option::CdsOption;

/// Unwrap a worker's result, re-raising its panic payload on the calling
/// thread instead of wrapping it in a second panic message.
fn join_or_propagate<T>(handle: std::thread::ScopedJoinHandle<'_, T>) -> T {
    match handle.join() {
        Ok(v) => v,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// Price a batch across `threads` OS threads, preserving option order.
///
/// # Panics
/// Panics if `threads` is zero.
pub fn price_parallel(engine: &CpuCdsEngine, options: &[CdsOption], threads: usize) -> Vec<f64> {
    price_parallel_stats(engine, options, threads).0
}

/// As [`price_parallel`], additionally returning merged work accounting
/// across the thread chunks (`threads` counts the chunks, total time
/// points).
///
/// # Panics
/// Panics if `threads` is zero.
pub fn price_parallel_stats(
    engine: &CpuCdsEngine,
    options: &[CdsOption],
    threads: usize,
) -> (Vec<f64>, CpuBatchStats) {
    let mut out = vec![0.0; options.len()];
    let stats = price_chunks(engine, &mut out, threads, |kernel, start, chunk| {
        kernel.price_positions_into(options, |i| start + i, chunk)
    });
    (out, stats)
}

/// Price the sparse selection `options[indices[j]]` into `out[j]` across
/// `threads` OS threads. Bit-for-bit identical to
/// [`LaneKernel::price_indices_into`]; duplicate and unsorted indices
/// are allowed, as there.
///
/// # Panics
/// Panics if `threads` is zero, if `indices` and `out` differ in
/// length, if an index is out of bounds for `options`, or on an invalid
/// schedule (same wording as the scalar path).
pub fn price_indices_parallel(
    engine: &CpuCdsEngine,
    options: &[CdsOption],
    indices: &[u32],
    out: &mut [f64],
    threads: usize,
) -> CpuBatchStats {
    assert_eq!(indices.len(), out.len(), "one output slot per index");
    price_chunks(engine, out, threads, |kernel, start, chunk| {
        kernel.price_positions_into(options, |i| indices[start + i] as usize, chunk)
    })
}

/// The one parallel body: cut `out` into at most `threads` balanced
/// chunks and call `price(kernel, start, chunk)` for each, where
/// `start` is the chunk's offset in `out` and `kernel` is fresh per
/// chunk. The last chunk runs on the calling thread.
fn price_chunks(
    engine: &CpuCdsEngine,
    out: &mut [f64],
    threads: usize,
    price: impl Fn(&mut LaneKernel<'_>, usize, &mut [f64]) -> CpuBatchStats + Sync,
) -> CpuBatchStats {
    assert!(threads > 0, "need at least one thread");
    let n = out.len();
    if n == 0 {
        return CpuBatchStats::default();
    }
    let parts = threads.min(n);
    let (base, extra) = (n / parts, n % parts);
    let price = &price;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(parts - 1);
        let mut rest = out;
        let mut start = 0;
        for part in 0..parts - 1 {
            let (chunk, tail) = rest.split_at_mut(base + usize::from(part < extra));
            let offset = start;
            start += chunk.len();
            rest = tail;
            handles.push(scope.spawn(move || price(&mut engine.lane_kernel(), offset, chunk)));
        }
        let mut stats = price(&mut engine.lane_kernel(), start, rest);
        for handle in handles {
            stats.merge(&join_or_propagate(handle));
        }
        stats.threads = parts as u64;
        stats
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_quant::option::{MarketData, PortfolioGenerator};

    #[test]
    fn parallel_matches_sequential_exactly() {
        let market = MarketData::paper_workload(21);
        let engine = CpuCdsEngine::new(&market);
        let options = PortfolioGenerator::new(2).portfolio(97); // uneven chunks
        let seq = engine.price_batch(&options);
        for threads in [1, 2, 3, 4, 8] {
            let par = price_parallel(&engine, &options, threads);
            assert_eq!(seq, par, "threads={threads}");
        }
    }

    #[test]
    fn indices_parallel_bitwise_identical_to_sequential_kernel() {
        // Every thread count against the one-kernel sparse entry, at
        // every lane-remainder length 0..=17 plus one length that spans
        // several lane groups per chunk, over dense, strided, shuffled
        // and duplicate index patterns.
        let market = MarketData::paper_workload(7);
        let engine = CpuCdsEngine::new(&market);
        let slab = PortfolioGenerator::new(11).portfolio(64);
        let mut kernel = engine.lane_kernel();
        let mut expected = Vec::new();
        for n in (0..=17usize).chain([203]) {
            let patterns: [Vec<u32>; 4] = [
                (0..n).map(|i| (i % slab.len()) as u32).collect(), // dense (wrapping)
                (0..n).map(|i| ((i * 13 + 5) % slab.len()) as u32).collect(), // stride
                (0..n).map(|i| ((i * 2_654_435_761) % slab.len()) as u32).collect(), // shuffled
                (0..n).map(|i| ((i / 3) * 7 % slab.len()) as u32).collect(), // duplicates
            ];
            for (p, indices) in patterns.iter().enumerate() {
                let seq_stats = kernel.price_indices_into(&slab, indices, &mut expected);
                for threads in [1, 2, 3, 8] {
                    let mut out = vec![f64::NAN; n];
                    let stats = price_indices_parallel(&engine, &slab, indices, &mut out, threads);
                    let bits = |v: &[f64]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&out), bits(&expected), "pattern {p}, len {n}, {threads}t");
                    assert_eq!(stats.options, seq_stats.options);
                    assert_eq!(stats.time_points, seq_stats.time_points);
                    assert_eq!(stats.threads, threads.min(n) as u64);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "one output slot per index")]
    fn indices_parallel_rejects_mismatched_output() {
        let market = MarketData::paper_workload(21);
        let engine = CpuCdsEngine::new(&market);
        let slab = PortfolioGenerator::new(2).portfolio(4);
        let _ = price_indices_parallel(&engine, &slab, &[0, 1], &mut [0.0], 2);
    }

    #[test]
    fn empty_and_single() {
        let market = MarketData::paper_workload(21);
        let engine = CpuCdsEngine::new(&market);
        assert!(price_parallel(&engine, &[], 4).is_empty());
        let one = PortfolioGenerator::new(1).portfolio(1);
        assert_eq!(price_parallel(&engine, &one, 4).len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let market = MarketData::paper_workload(21);
        let engine = CpuCdsEngine::new(&market);
        let _ = price_parallel(&engine, &[], 0);
    }

    #[test]
    fn more_threads_than_options_is_fine() {
        let market = MarketData::paper_workload(21);
        let engine = CpuCdsEngine::new(&market);
        let options = PortfolioGenerator::new(3).portfolio(3);
        let par = price_parallel(&engine, &options, 16);
        assert_eq!(par.len(), 3);
    }

    #[test]
    fn parallel_stats_account_all_work() {
        let market = MarketData::paper_workload(21);
        let engine = CpuCdsEngine::new(&market);
        let options = PortfolioGenerator::new(2).portfolio(97);
        let (seq_spreads, seq_stats) = engine.price_batch_stats(&options);
        let (par_spreads, par_stats) = price_parallel_stats(&engine, &options, 4);
        assert_eq!(seq_spreads, par_spreads);
        assert_eq!(seq_stats.options, 97);
        assert_eq!(par_stats.options, 97);
        assert_eq!(seq_stats.time_points, par_stats.time_points);
        assert!(seq_stats.time_points > 0);
        assert_eq!(seq_stats.threads, 1);
        assert_eq!(par_stats.threads, 4);
    }
}

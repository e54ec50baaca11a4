//! The serving write-ahead journal.
//!
//! Every accepted quote is appended (and flushed) to the journal
//! *before* it is dispatched to a shard; every completion is appended
//! after its canonical spread is elected. The journal is the server's
//! only durable record: [`read_wal`] rebuilds the accepted quotes, their
//! completions and the drain marker from its lines alone. A `SIGTERM`
//! mid-burst therefore leaves one of two states, both safe: the drain
//! finished (the journal ends with a `drain commit=` line) or it did
//! not (accepted-but-incomplete quotes are recoverable as
//! [`WalState::pending`] and reprice bit-identically — the CPU engine
//! is deterministic given the epoch seed).
//!
//! ## Crash-consistent write discipline
//!
//! All storage goes through the engine's
//! [`cds_engine::journal_io::JournalIo`] abstraction, which makes the
//! ordering testable (and its violation loud) in the `storage-chaos`
//! harness:
//!
//! 1. every record is flushed on append but *not* fsynced, so a power
//!    loss may lose a tail of them,
//! 2. the journal is fsynced every `cadence` completions,
//! 3. the terminal `drain commit=` marker is appended, then fsynced
//!    ([`drain_commit_synced`] checks this on a recorded trace).
//!
//! The journal is prefix-consistent, and every unsynced prefix resumes
//! bit-identically — the `storage-chaos` crash-state enumeration
//! proves it.
//!
//! ## Fail-stop degradation
//!
//! The writer is **fail-stop**: the first storage failure (ENOSPC,
//! EIO, a short write) marks it degraded and every later append is
//! refused with [`WalError::Degraded`] instead of stacking further
//! writes after a hole. The on-disk journal stays torn-at-EOF at
//! worst, so the durable prefix remains resumable. The server surfaces
//! the flag as the `wal-degraded` ladder observation.

use crate::proto::{f64_from_wire, f64_to_wire, Priority};
use cds_engine::journal_io::{FileId, JournalIo, JournalOp, OsJournalIo, StorageFaultPlan};
use cds_quant::option::{CdsOption, PaymentFrequency};
use cds_quant::QuantError;
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::lock_recover;

const WAL_HEADER: &str = "cds-server-wal v1";

/// An attributable corruption: which file, where, and why — every
/// distinguishable corruption class [`read_wal`] can meet reports one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptionReport {
    /// The corrupt journal file.
    pub file: PathBuf,
    /// Byte offset of the offending record (0 when the corruption is
    /// not positional, e.g. a record that no longer validates on
    /// resume).
    pub offset: u64,
    /// 1-based line number of the offending record, when positional.
    pub line: Option<u64>,
    /// What is wrong.
    pub cause: String,
}

impl fmt::Display for CorruptionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(line) => write!(
                f,
                "{} line {line} (byte {}): {}",
                self.file.display(),
                self.offset,
                self.cause
            ),
            None => write!(f, "{}: {}", self.file.display(), self.cause),
        }
    }
}

/// A journal failure.
#[derive(Debug)]
pub enum WalError {
    /// Filesystem-level failure.
    Io(std::io::Error),
    /// The writer was misconfigured.
    Config(&'static str),
    /// The writer is fail-stop after an earlier storage failure; the
    /// durable journal prefix remains resumable, but no further
    /// appends are accepted.
    Degraded,
    /// The journal is malformed; the report attributes the corruption
    /// to a file, offset, and cause.
    Corrupt(CorruptionReport),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "journal io error: {e}"),
            WalError::Config(reason) => write!(f, "journal misconfigured: {reason}"),
            WalError::Degraded => write!(
                f,
                "journal degraded: an earlier storage failure made the writer fail-stop \
                 (the durable prefix remains resumable)"
            ),
            WalError::Corrupt(report) => write!(f, "journal corrupt: {report}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// One accepted quote, durable before dispatch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceptRecord {
    /// Journal sequence number (dense, 0-based).
    pub seq: u32,
    /// Client request id.
    pub id: u64,
    /// Contract maturity in years (bit-exact in the journal).
    pub maturity: f64,
    /// Premium payment frequency.
    pub frequency: PaymentFrequency,
    /// Recovery rate (bit-exact in the journal).
    pub recovery: f64,
    /// Shedding priority.
    pub priority: Priority,
}

impl AcceptRecord {
    /// Rebuild the validated quant option this record was accepted as.
    ///
    /// # Errors
    /// Propagates domain validation — cannot fail for records the
    /// server itself accepted, but a hand-edited journal is re-checked.
    pub fn option(&self) -> Result<CdsOption, QuantError> {
        CdsOption::validated(self.maturity, self.frequency, self.recovery)
    }
}

fn freq_token(f: PaymentFrequency) -> &'static str {
    match f {
        PaymentFrequency::Annual => "A",
        PaymentFrequency::SemiAnnual => "S",
        PaymentFrequency::Quarterly => "Q",
        PaymentFrequency::Monthly => "M",
    }
}

fn freq_parse(tok: &str) -> Result<PaymentFrequency, String> {
    match tok {
        "A" => Ok(PaymentFrequency::Annual),
        "S" => Ok(PaymentFrequency::SemiAnnual),
        "Q" => Ok(PaymentFrequency::Quarterly),
        "M" => Ok(PaymentFrequency::Monthly),
        other => Err(format!("bad frequency `{other}`")),
    }
}

/// Which storage fault `--wal-fault` injects into the server's journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalFaultKind {
    /// The targeted append fails with ENOSPC.
    Enospc,
    /// The targeted append fails with EIO.
    Eio,
    /// The targeted append lands a seeded prefix, then fails.
    ShortWrite,
    /// Every fsync from the given index onward lies.
    LyingFsync,
}

/// A parsed `--wal-fault <kind>@<n>` specification: inject `kind` at
/// absolute journal-io operation index `at` (append index for the
/// write faults, fsync index for the lying fsync).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalFaultSpec {
    /// The fault class to inject.
    pub kind: WalFaultKind,
    /// Absolute per-class operation index.
    pub at: u64,
}

impl WalFaultSpec {
    /// Expand into a [`StorageFaultPlan`] seeded with `seed`.
    #[must_use]
    pub fn plan(self, seed: u64) -> StorageFaultPlan {
        let plan = StorageFaultPlan::new(seed);
        match self.kind {
            WalFaultKind::Enospc => plan.enospc_at(self.at),
            WalFaultKind::Eio => plan.eio_at(self.at),
            WalFaultKind::ShortWrite => plan.short_write_at(self.at),
            WalFaultKind::LyingFsync => plan.lying_fsync_from(self.at),
        }
    }
}

impl std::str::FromStr for WalFaultSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<WalFaultSpec, String> {
        let (kind, at) = s
            .split_once('@')
            .ok_or_else(|| format!("bad wal fault `{s}` (want <kind>@<index>)"))?;
        let kind = match kind {
            "enospc" => WalFaultKind::Enospc,
            "eio" => WalFaultKind::Eio,
            "short" => WalFaultKind::ShortWrite,
            "liar" => WalFaultKind::LyingFsync,
            other => {
                return Err(format!("bad wal fault kind `{other}` (want enospc|eio|short|liar)"))
            }
        };
        let at = at.parse::<u64>().map_err(|_| format!("bad wal fault index `{at}`"))?;
        Ok(WalFaultSpec { kind, at })
    }
}

struct WalInner {
    io: Arc<dyn JournalIo>,
    file: FileId,
    cadence: u32,
    accepted: u32,
    completed: u32,
    degraded: bool,
}

/// Appender half of the journal; all methods flush before returning so
/// a kill after an `accept` never loses the acceptance. Fail-stop: the
/// first storage failure degrades the writer permanently (see the
/// module docs).
pub struct WalWriter {
    seed: u64,
    inner: Mutex<WalInner>,
}

impl fmt::Debug for WalWriter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WalWriter").field("seed", &self.seed).finish_non_exhaustive()
    }
}

fn append_line(inner: &mut WalInner, line: &str) -> Result<(), WalError> {
    if inner.degraded {
        return Err(WalError::Degraded);
    }
    match inner.io.append(inner.file, line.as_bytes()) {
        Ok(()) => Ok(()),
        Err(e) => {
            inner.degraded = true;
            Err(WalError::Io(e))
        }
    }
}

fn fsync_journal(inner: &mut WalInner) -> Result<(), WalError> {
    if inner.degraded {
        return Err(WalError::Degraded);
    }
    match inner.io.fsync(inner.file) {
        Ok(()) => Ok(()),
        Err(e) => {
            inner.degraded = true;
            Err(WalError::Io(e))
        }
    }
}

impl WalWriter {
    /// Create (truncate) a journal at `path` on the real filesystem.
    /// `seed` is the boot curve epoch seed; `cadence` is the number of
    /// completions per journal fsync.
    pub fn create(path: &Path, seed: u64, cadence: u32) -> Result<WalWriter, WalError> {
        WalWriter::create_with_io(Arc::new(OsJournalIo::new()), path, seed, cadence)
    }

    /// Create a journal over an explicit storage substrate — the real
    /// filesystem, a recording wrapper, or a fault-injecting one.
    pub fn create_with_io(
        io: Arc<dyn JournalIo>,
        path: &Path,
        seed: u64,
        cadence: u32,
    ) -> Result<WalWriter, WalError> {
        if cadence == 0 {
            return Err(WalError::Config("journal fsync cadence must be at least 1"));
        }
        let file = io.create(path)?;
        io.append(file, format!("{WAL_HEADER}\nseed={seed}\ncadence={cadence}\n").as_bytes())?;
        Ok(WalWriter {
            seed,
            inner: Mutex::new(WalInner {
                io,
                file,
                cadence,
                accepted: 0,
                completed: 0,
                degraded: false,
            }),
        })
    }

    /// True once a storage failure has made the writer fail-stop.
    pub fn is_degraded(&self) -> bool {
        lock_recover(&self.inner).degraded
    }

    /// Durably record an acceptance and allocate its sequence number.
    /// Nothing may be dispatched for this quote until this returns.
    pub fn accept(&self, id: u64, option: &CdsOption, priority: Priority) -> Result<u32, WalError> {
        let mut inner = lock_recover(&self.inner);
        let seq = inner.accepted;
        let prio = match priority {
            Priority::High => "HI",
            Priority::Low => "LO",
        };
        let line = format!(
            "accept seq={seq} id={id} mat={} freq={} rec={} prio={prio}\n",
            f64_to_wire(option.maturity),
            freq_token(option.frequency),
            f64_to_wire(option.recovery_rate),
        );
        append_line(&mut inner, &line)?;
        inner.accepted += 1;
        Ok(seq)
    }

    /// Durably record a completion (the canonical spread for `seq`).
    /// Every `cadence` completions the journal is fsynced.
    pub fn done(&self, seq: u32, spread_bps: f64) -> Result<(), WalError> {
        let mut inner = lock_recover(&self.inner);
        append_line(&mut inner, &format!("done seq={seq} bits={}\n", f64_to_wire(spread_bps)))?;
        inner.completed += 1;
        if inner.completed.is_multiple_of(inner.cadence) {
            fsync_journal(&mut inner)?;
        }
        Ok(())
    }

    /// Terminal drain record: appends the `drain commit=` line marking
    /// how many completions the journal holds, then fsyncs it. Pending
    /// quotes (if the drain deadline expired first) remain recoverable.
    pub fn finalize(&self) -> Result<(), WalError> {
        let mut inner = lock_recover(&self.inner);
        let commit = inner.completed;
        append_line(&mut inner, &format!("drain commit={commit}\n"))?;
        fsync_journal(&mut inner)
    }
}

/// The trace-level drain rule: every `drain commit=` append in `ops`
/// is followed by an fsync of the same journal. A trace without a drain
/// marker holds it vacuously; a trace whose fsyncs never reached the
/// disk (a lying fsync) fails it.
pub fn drain_commit_synced(ops: &[JournalOp]) -> bool {
    ops.iter().enumerate().all(|(i, op)| match op {
        JournalOp::Append { path, bytes } if bytes.starts_with(b"drain commit=") => {
            ops[i + 1..].iter().any(|o| matches!(o, JournalOp::Fsync { path: p } if p == path))
        }
        _ => true,
    })
}

/// Everything a journal recovers to.
#[derive(Debug)]
pub struct WalState {
    /// Boot curve epoch seed the server ran with.
    pub seed: u64,
    /// Every accepted quote, in sequence order.
    pub accepted: Vec<AcceptRecord>,
    /// Canonical spread per completed sequence number.
    pub done: HashMap<u32, f64>,
    /// Whether a terminal `drain commit=` record was found.
    pub drained: bool,
}

impl WalState {
    /// Accepted-but-incomplete quotes, in sequence order — the work a
    /// resume must finish.
    pub fn pending(&self) -> Vec<AcceptRecord> {
        self.accepted.iter().filter(|a| !self.done.contains_key(&a.seq)).copied().collect()
    }
}

fn parse_kv<'a>(tok: &'a str, key: &str) -> Result<&'a str, String> {
    tok.strip_prefix(key)
        .and_then(|r| r.strip_prefix('='))
        .ok_or_else(|| format!("expected `{key}=`, got `{tok}`"))
}

/// Strict journal-side f64 wire parse: exactly `0x` + 16 hex digits.
///
/// The TCP protocol's [`f64_from_wire`] is deliberately lenient (it
/// accepts decimals and short hex from clients), but journal records
/// are only ever written by [`f64_to_wire`], which always emits 16
/// digits — so a shorter pattern here can only be a **torn write**,
/// and accepting it would silently resume a wrong spread (`0x4059`
/// parses as a valid, tiny f64). Rejecting it instead turns the torn
/// byte into a dropped tail or a typed corruption.
fn f64_wire_strict(tok: &str) -> Result<f64, String> {
    let hex = tok.strip_prefix("0x").ok_or_else(|| format!("bad f64 wire `{tok}`"))?;
    if hex.len() != 16 {
        return Err(format!("truncated f64 bit pattern `{tok}` (want 16 hex digits)"));
    }
    f64_from_wire(tok).map_err(|e| e.reason)
}

fn parse_accept(toks: &[&str]) -> Result<AcceptRecord, String> {
    match toks {
        [seq, id, mat, freq, rec, prio] => Ok(AcceptRecord {
            seq: parse_kv(seq, "seq")?.parse::<u32>().map_err(|_| format!("bad seq in `{seq}`"))?,
            id: parse_kv(id, "id")?.parse::<u64>().map_err(|_| format!("bad id in `{id}`"))?,
            maturity: f64_wire_strict(parse_kv(mat, "mat")?)?,
            frequency: freq_parse(parse_kv(freq, "freq")?)?,
            recovery: f64_wire_strict(parse_kv(rec, "rec")?)?,
            priority: match parse_kv(prio, "prio")? {
                "HI" => Priority::High,
                "LO" => Priority::Low,
                other => return Err(format!("bad priority `{other}`")),
            },
        }),
        _ => Err("malformed accept record".to_string()),
    }
}

fn parse_line(state: &mut WalState, line: &str) -> Result<(), String> {
    let toks: Vec<&str> = line.split_whitespace().collect();
    match toks.split_first() {
        Some((&"accept", rest)) => {
            let rec = parse_accept(rest)?;
            if rec.seq as usize != state.accepted.len() {
                return Err(format!(
                    "accept seq {} out of order (expected {})",
                    rec.seq,
                    state.accepted.len()
                ));
            }
            state.accepted.push(rec);
            Ok(())
        }
        Some((&"done", [seq, bits])) => {
            let seq =
                parse_kv(seq, "seq")?.parse::<u32>().map_err(|_| format!("bad seq in `{seq}`"))?;
            if seq as usize >= state.accepted.len() {
                return Err(format!("done for unaccepted seq {seq}"));
            }
            let spread = f64_wire_strict(parse_kv(bits, "bits")?)?;
            state.done.insert(seq, spread);
            Ok(())
        }
        Some((&"drain", [commit])) => {
            let commit = parse_kv(commit, "commit")?
                .parse::<usize>()
                .map_err(|_| format!("bad commit in `{commit}`"))?;
            if commit != state.done.len() {
                return Err(format!(
                    "drain commit {} disagrees with {} durable completions",
                    commit,
                    state.done.len()
                ));
            }
            state.drained = true;
            Ok(())
        }
        _ => Err(format!("unknown journal record `{line}`")),
    }
}

/// Read a journal back. A torn final line — the signature of a kill or
/// power loss mid-write — is dropped; corruption anywhere else fails
/// typed with an attributable [`CorruptionReport`] (file, byte offset,
/// line, cause).
pub fn read_wal(path: &Path) -> Result<WalState, WalError> {
    let text = std::fs::read_to_string(path)?;
    let corrupt = |offset: u64, line: Option<u64>, cause: String| {
        WalError::Corrupt(CorruptionReport { file: path.to_path_buf(), offset, line, cause })
    };
    let ends_clean = text.ends_with('\n');
    // Each record with its byte offset and 1-based line number.
    let mut records: Vec<(u64, u64, &str)> = Vec::new();
    let mut offset = 0u64;
    for (i, seg) in text.split_inclusive('\n').enumerate() {
        let line = seg.strip_suffix('\n').unwrap_or(seg);
        records.push((offset, i as u64 + 1, line));
        offset += seg.len() as u64;
    }
    let mut rest = records.as_slice();
    let mut take_header = |expect: &str| -> Result<(u64, u64, &str), WalError> {
        match rest.split_first() {
            Some((&(off, line_no, line), tail)) => {
                rest = tail;
                Ok((off, line_no, line))
            }
            None => Err(corrupt(offset, None, format!("journal missing {expect}"))),
        }
    };
    let (h_off, h_line, header) = take_header("header")?;
    if header != WAL_HEADER {
        return Err(corrupt(h_off, Some(h_line), format!("bad header `{header}`")));
    }
    let (s_off, s_line, seed_line) = take_header("seed")?;
    let seed = parse_kv(seed_line, "seed")
        .and_then(|v| v.parse::<u64>().map_err(|_| "bad seed".to_string()))
        .map_err(|cause| corrupt(s_off, Some(s_line), cause))?;
    // The fsync cadence is validated but not kept: resume does not
    // depend on how often the writer synced.
    let (c_off, c_line, cadence_line) = take_header("cadence")?;
    parse_kv(cadence_line, "cadence")
        .and_then(|v| v.parse::<u32>().map_err(|_| "bad cadence".to_string()))
        .map_err(|cause| corrupt(c_off, Some(c_line), cause))?;
    let body = rest;

    let mut state = WalState { seed, accepted: Vec::new(), done: HashMap::new(), drained: false };
    for (i, &(off, line_no, line)) in body.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        if let Err(cause) = parse_line(&mut state, line) {
            let is_last = i + 1 == body.len();
            if is_last && !ends_clean {
                break; // torn tail from a mid-write kill: drop it
            }
            return Err(corrupt(off, Some(line_no), cause));
        }
    }

    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_engine::journal_io::{FaultyJournalIo, RecordingJournalIo};
    use cds_quant::option::PaymentFrequency;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("cds-server-wal-test-{}-{name}", std::process::id()));
        p
    }

    fn opt() -> CdsOption {
        CdsOption::new(5.0, PaymentFrequency::Quarterly, 0.4)
    }

    #[test]
    fn accept_done_drain_round_trip_bit_exactly() {
        let path = tmp("roundtrip.wal");
        let wal = WalWriter::create(&path, 42, 2).expect("create");
        let spread = f64::from_bits(0x4059_4ccc_cccc_cccd);
        let s0 = wal.accept(100, &opt(), Priority::High).expect("accept");
        let s1 = wal.accept(101, &opt(), Priority::Low).expect("accept");
        assert_eq!((s0, s1), (0, 1));
        wal.done(0, spread).expect("done");
        wal.finalize().expect("finalize");

        let state = read_wal(&path).expect("read");
        assert_eq!(state.seed, 42);
        assert_eq!(state.accepted.len(), 2);
        assert_eq!(state.done.len(), 1);
        assert!(state.drained);
        assert_eq!(state.done[&0].to_bits(), spread.to_bits());
        let pending = state.pending();
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].seq, 1);
        assert_eq!(pending[0].id, 101);
        assert_eq!(pending[0].priority, Priority::Low);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_dropped_but_interior_corruption_is_typed() {
        let path = tmp("torn.wal");
        let wal = WalWriter::create(&path, 7, 4).expect("create");
        wal.accept(1, &opt(), Priority::High).expect("accept");
        wal.done(0, 100.0).expect("done");
        drop(wal);
        // Simulate a kill mid-append: a partial accept line, no newline.
        let mut text = std::fs::read_to_string(&path).expect("read back");
        text.push_str("accept seq=1 id=2 mat=0x40");
        std::fs::write(&path, &text).expect("rewrite");
        let state = read_wal(&path).expect("torn tail tolerated");
        assert_eq!(state.accepted.len(), 1);
        assert_eq!(state.pending().len(), 0);
        assert!(!state.drained);
        // The same garbage mid-file (newline-terminated, with records
        // after it) is corruption, not a torn tail — and the report
        // attributes it to the right file, line, and byte offset.
        let mut text = std::fs::read_to_string(&path).expect("read back");
        let torn_offset = text.len() as u64;
        text.push_str("\ndone seq=0 bits=0x4059000000000000\n");
        std::fs::write(&path, &text).expect("rewrite");
        match read_wal(&path) {
            Err(WalError::Corrupt(report)) => {
                assert_eq!(report.file, path);
                assert_eq!(report.offset, torn_offset - "accept seq=1 id=2 mat=0x40".len() as u64);
                assert_eq!(report.line, Some(6));
                assert!(report.cause.contains("accept"), "cause: {}", report.cause);
            }
            other => panic!("interior corruption must be typed, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Drive a journal through a recording substrate: `quotes` accepts
    /// and completions at cadence 2, then the drain finalize.
    fn recorded_run(tag: &str, quotes: u32) -> (PathBuf, PathBuf, Vec<JournalOp>) {
        let dir = std::env::temp_dir().join(format!("cds-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("dir");
        let path = dir.join("j.wal");
        let rec = Arc::new(RecordingJournalIo::over(Arc::new(OsJournalIo::new())));
        let wal = WalWriter::create_with_io(rec.clone(), &path, 42, 2).expect("create");
        for i in 0..quotes {
            let seq = wal.accept(u64::from(i), &opt(), Priority::High).expect("accept");
            wal.done(seq, 100.0 + f64::from(i)).expect("done");
        }
        wal.finalize().expect("finalize");
        (dir, path, rec.trace())
    }

    fn is_journal_fsync(op: &JournalOp, path: &Path) -> bool {
        matches!(op, JournalOp::Fsync { path: p } if p == path)
    }

    fn appends(op: &JournalOp, prefix: &[u8]) -> bool {
        matches!(op, JournalOp::Append { bytes, .. } if bytes.starts_with(prefix))
    }

    /// The journal is fsynced on every `cadence`-th completion, and the
    /// drain marker is fsynced after its append.
    #[test]
    fn sync_calls_happen_in_order_on_the_trace() {
        let (dir, path, trace) = recorded_run("order", 2);
        assert!(drain_commit_synced(&trace), "write discipline violated: {trace:#?}");
        let second_done =
            trace.iter().rposition(|op| appends(op, b"done seq=1 ")).expect("second done present");
        assert!(
            is_journal_fsync(&trace[second_done + 1], &path),
            "the cadence-th completion must be fsynced: {trace:#?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drain_commit_without_its_fsync_fails_the_trace_rule() {
        let (dir, path, mut trace) = recorded_run("unsynced-drain", 2);
        assert!(drain_commit_synced(&trace));
        let last_fsync =
            trace.iter().rposition(|op| is_journal_fsync(op, &path)).expect("final fsync");
        trace.remove(last_fsync);
        assert!(!drain_commit_synced(&trace), "an unsynced drain marker must fail: {trace:#?}");
        // A run that never drained holds the rule vacuously.
        let undrained: Vec<JournalOp> =
            trace.into_iter().filter(|op| !appends(op, b"drain ")).collect();
        assert!(drain_commit_synced(&undrained));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Per-quote write work does not grow with history: the journal is
    /// the only file, every fsync is a cadence or drain fsync, and every
    /// appended byte is a journal byte.
    #[test]
    fn per_quote_write_work_is_flat_in_history() {
        let quotes = 64u32;
        let (dir, path, trace) = recorded_run("flat", quotes);
        let creates: Vec<&JournalOp> =
            trace.iter().filter(|op| matches!(op, JournalOp::Create { .. })).collect();
        assert_eq!(creates, [&JournalOp::Create { path: path.clone() }]);
        assert!(
            !trace
                .iter()
                .any(|op| matches!(op, JournalOp::Rename { .. } | JournalOp::SyncDir { .. })),
            "the journal never renames or syncs a directory: {trace:#?}"
        );
        let fsyncs = trace.iter().filter(|op| is_journal_fsync(op, &path)).count();
        assert_eq!(fsyncs, quotes as usize / 2 + 1);
        let appended: usize = trace
            .iter()
            .map(|op| match op {
                JournalOp::Append { bytes, .. } => bytes.len(),
                _ => 0,
            })
            .sum();
        let on_disk = std::fs::metadata(&path).expect("journal").len();
        assert_eq!(appended as u64, on_disk);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn enospc_makes_the_writer_fail_stop_but_the_prefix_resumable() {
        let dir = std::env::temp_dir().join(format!("cds-wal-enospc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("dir");
        let path = dir.join("j.wal");
        // Append 0 is the header; appends 1..=2 the accepts; append 3
        // (the first done line) hits injected ENOSPC.
        let io = Arc::new(FaultyJournalIo::over(
            Arc::new(OsJournalIo::new()),
            StorageFaultPlan::new(42).enospc_at(3),
        ));
        let wal = WalWriter::create_with_io(io.clone(), &path, 42, 8).expect("create");
        wal.accept(10, &opt(), Priority::High).expect("accept");
        wal.accept(11, &opt(), Priority::High).expect("accept");
        match wal.done(0, 100.0) {
            Err(WalError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::StorageFull),
            other => panic!("expected ENOSPC, got {other:?}"),
        }
        assert!(wal.is_degraded());
        assert!(io.counters().any());
        // Fail-stop: everything after the failure is refused…
        assert!(matches!(wal.done(1, 101.0), Err(WalError::Degraded)));
        assert!(matches!(wal.accept(12, &opt(), Priority::High), Err(WalError::Degraded)));
        assert!(matches!(wal.finalize(), Err(WalError::Degraded)));
        // …so the on-disk journal is a clean resumable prefix.
        let state = read_wal(&path).expect("prefix resumes");
        assert_eq!(state.accepted.len(), 2);
        assert_eq!(state.done.len(), 0);
        assert_eq!(state.pending().len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The journal alone refuses foreign or self-inconsistent files:
    /// a header other than `cds-server-wal v1`, a malformed `cadence=`
    /// header line, and a drain marker whose count disagrees with the
    /// completions it follows.
    #[test]
    fn foreign_header_and_miscounted_drain_fail_typed() {
        let path = tmp("foreign.wal");
        let wal = WalWriter::create(&path, 7, 4).expect("create");
        wal.accept(1, &opt(), Priority::High).expect("accept");
        wal.done(0, 100.0).expect("done");
        wal.finalize().expect("finalize");
        drop(wal);
        let text = std::fs::read_to_string(&path).expect("read back");
        for (bad, line) in [
            (text.replacen(WAL_HEADER, "cds-checkpoint v1", 1), 1),
            (text.replace("cadence=4", "cadence=four"), 3),
            (text.replace("drain commit=1", "drain commit=2"), 6),
        ] {
            std::fs::write(&path, &bad).expect("rewrite");
            match read_wal(&path) {
                Err(WalError::Corrupt(report)) => assert_eq!(report.line, Some(line)),
                other => panic!("expected typed corruption at line {line}, got {other:?}"),
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_bits_never_misparse_as_a_valid_spread() {
        assert_eq!(
            f64_wire_strict("0x4059000000000000").expect("full pattern").to_bits(),
            0x4059_0000_0000_0000
        );
        // A torn tail of the same record must be rejected, not read as
        // the (valid, wrong) tiny float 0x4059.
        assert!(f64_wire_strict("0x4059").is_err());
        assert!(f64_wire_strict("103.5").is_err());
        assert!(f64_wire_strict("0x").is_err());
    }

    #[test]
    fn wal_fault_specs_parse_and_reject() {
        assert_eq!(
            "enospc@3".parse::<WalFaultSpec>().expect("parse"),
            WalFaultSpec { kind: WalFaultKind::Enospc, at: 3 }
        );
        assert_eq!(
            "liar@0".parse::<WalFaultSpec>().expect("parse"),
            WalFaultSpec { kind: WalFaultKind::LyingFsync, at: 0 }
        );
        assert!("enospc".parse::<WalFaultSpec>().is_err());
        assert!("gremlin@3".parse::<WalFaultSpec>().is_err());
        assert!("eio@many".parse::<WalFaultSpec>().is_err());
    }
}

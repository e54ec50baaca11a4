//! Chaos scenarios for the serving front-end, with a baseline gate.
//!
//! Where [`crate::chaos`] attacks the simulated dataflow engines with
//! cycle-accurate fault plans, this module attacks the **real serving
//! stack** — `cds-server` over TCP, threads and wall clock included —
//! with the failure modes a quote-serving deployment actually meets:
//!
//! - `server/engine-death-midburst` — a shard dies while a burst is in
//!   flight; retries, hedging and the CPU fallback must price every
//!   accepted quote bit-identically to the healthy run,
//! - `server/kill-during-drain-resume` — a drain deadline expires with
//!   quotes still stuck on a stalled shard; the write-ahead journal
//!   must hold them pending and [`resume_journal`] must finish the run
//!   bit-identically to an uninterrupted one,
//! - `server/slow-consumer-backpressure` — a client that stops reading
//!   replies while pipelining requests; the in-flight bound must hold
//!   and every request must still be answered,
//! - `server/overload-shed` — sustained ~2x overload of a deliberately
//!   tiny deployment; the ladder must shed rather than queue without
//!   bound, and what *is* priced must stay bit-exact.
//!
//! A second matrix ([`run_isolation`], `server-chaos --isolation`) is
//! the repo's one hostile-client gate. It attacks the tenant bulkheads
//! instead of the failure-recovery path:
//!
//! - `server/noisy-neighbor-flood` — a quota'd abuser tenant pipelines
//!   3,000 quotes at ≥10x its 100/s quota while two slowloris trickles
//!   hit the idle reaper; the abuser must be throttled (with a positive
//!   retry hint) and held to its quota, both trickles must be reaped,
//!   and the default-tenant victim must stay un-throttled, bit-exact
//!   and within 50x (10 ms floor) of its solo p99,
//! - `server/slowloris-reaper` — idle trickle connections must be
//!   reaped while a clean client prices bit-exactly,
//! - `server/protocol-fuzz` — seeded garbage and torn lines must each
//!   earn exactly one typed `ERR`, never a wedge, and the fuzzed
//!   connection must still price bit-exactly.
//!
//! Its baseline is `results/tenant_isolation_baseline.json`.
//!
//! Wall-clock runs are not cycle-reproducible, so unlike the engine
//! chaos gate the committed baselines pin only the **stable booleans**
//! of each scenario — survived, degraded, shed-occurred,
//! spreads-match — never counts or latencies.

use crate::json::Json;
use crate::loadgen::quantile;
use crate::verdict::{Case, MatrixSpec, VerdictMatrix};
use cds_cpu::engine::CpuCdsEngine;
use cds_quant::option::{CdsOption, MarketData, PaymentFrequency};
use cds_server::fuzz::{curve_publishes, fuzz_lines, torn_lines};
use cds_server::ladder::LadderConfig;
use cds_server::proto::{f64_to_wire, parse_response, Response};
use cds_server::server::{resume_journal, serve, ServerConfig};
use cds_server::tenant::TenantLimits;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The serving chaos gate: boolean verdicts only.
pub static VERDICTS: MatrixSpec = MatrixSpec {
    gate: "server-chaos",
    schema_version: 1,
    fields: &["degraded", "shed_occurred", "spreads_match_clean", "survived"],
    baseline: "results/server_chaos_baseline.json",
};

/// The tenant-isolation gate: the same verdicts, its own baseline.
pub static ISOLATION_VERDICTS: MatrixSpec = MatrixSpec {
    gate: "tenant-isolation",
    baseline: "results/tenant_isolation_baseline.json",
    ..VERDICTS
};

/// Outcome of one serving chaos scenario. Only the boolean verdicts are
/// baseline-gated; the counts are informational (wall clock varies).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerChaosCase {
    /// Stable scenario slug, e.g. `server/engine-death-midburst`.
    pub name: String,
    /// The deployment ran impaired (dead shard, expired drain, …).
    pub degraded: bool,
    /// Admission control or the ladder shed load.
    pub shed_occurred: bool,
    /// Every priced/resumed spread is bit-identical to the reference.
    pub spreads_match_clean: bool,
    /// The scenario's overall pass verdict.
    pub survived: bool,
    /// Informational: requests sent (not gated).
    pub sent: u64,
    /// Informational: requests priced (not gated).
    pub priced: u64,
    /// Informational: requests shed or rejected (not gated).
    pub shed: u64,
}

impl ServerChaosCase {
    /// The gated row, in [`VERDICTS`] field order.
    fn row(&self) -> Case {
        let flags = [self.degraded, self.shed_occurred, self.spreads_match_clean, self.survived];
        Case { name: self.name.clone(), values: flags.map(Json::Bool).to_vec() }
    }
}

/// The gated matrix of a run of either serving matrix (`spec` is
/// [`VERDICTS`] or [`ISOLATION_VERDICTS`]).
pub fn matrix(spec: &'static MatrixSpec, seed: u64, cases: &[ServerChaosCase]) -> VerdictMatrix {
    VerdictMatrix { spec, seed, cases: cases.iter().map(ServerChaosCase::row).collect() }
}

/// A blocking line-protocol client for the closed-loop phases.
struct LineClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl LineClient {
    fn connect(addr: SocketAddr) -> Result<LineClient, String> {
        let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_read_timeout(Some(Duration::from_secs(10))).map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(LineClient { reader: BufReader::new(stream), writer })
    }

    fn roundtrip(&mut self, line: &str) -> Result<Response, String> {
        writeln!(self.writer, "{line}").map_err(|e| e.to_string())?;
        self.writer.flush().map_err(|e| e.to_string())?;
        self.recv()
    }

    fn recv(&mut self) -> Result<Response, String> {
        let mut reply = String::new();
        self.reader.read_line(&mut reply).map_err(|e| e.to_string())?;
        if reply.is_empty() {
            return Err("connection closed".to_string());
        }
        parse_response(reply.trim()).map_err(|e| format!("bad reply `{reply}`: {e}"))
    }
}

/// One compliant priced round-trip: the final-attempt latency plus how
/// many `THROTTLE` replies were absorbed along the way.
struct Trip {
    bits: u64,
    micros: u64,
    throttles: u64,
}

/// Quote until priced, honouring every `SHED`/`REJECT`/`THROTTLE` by
/// sleeping the advertised hint and retrying, the way the protocol
/// contract asks.
fn compliant_trip(client: &mut LineClient, id: u64) -> Result<Trip, String> {
    let line = quote_line(id, 5.0, 0.4, false);
    let mut throttles = 0u64;
    for _ in 0..200 {
        let t0 = Instant::now();
        match client.roundtrip(&line)? {
            Response::Quote(q) => {
                return Ok(Trip {
                    bits: q.spread_bps.to_bits(),
                    micros: t0.elapsed().as_micros() as u64,
                    throttles,
                })
            }
            Response::Shed { retry_after_ms, .. } | Response::Reject { retry_after_ms, .. } => {
                std::thread::sleep(Duration::from_millis(retry_after_ms.max(1)));
            }
            Response::Throttle { retry_after_ms, .. } => {
                throttles += 1;
                std::thread::sleep(Duration::from_millis(retry_after_ms.max(1)));
            }
            other => return Err(format!("unexpected reply to quote {id}: {other:?}")),
        }
    }
    Err(format!("quote {id} never priced after 200 compliant attempts"))
}

fn reference_bits(seed: u64, maturity: f64, recovery: f64) -> u64 {
    let engine = CpuCdsEngine::new(&MarketData::paper_workload(seed));
    engine
        .price(&CdsOption::new(maturity, PaymentFrequency::Quarterly, recovery))
        .spread_bps
        .to_bits()
}

fn quote_line(id: u64, maturity: f64, recovery: f64, low_priority: bool) -> String {
    let tail = if low_priority { " LO" } else { "" };
    format!("QUOTE {id} {} Q {}{tail}", f64_to_wire(maturity), f64_to_wire(recovery))
}

/// A shard dies while a closed-loop burst is in flight; retries and the
/// hedger must keep every quote priced bit-identically.
fn scenario_engine_death(seed: u64) -> Result<ServerChaosCase, String> {
    let handle =
        serve(ServerConfig { shards: 2, seed, ..Default::default() }).map_err(|e| e.to_string())?;
    let mut client = LineClient::connect(handle.addr())?;
    let total = 24u64;
    let mut priced = 0u64;
    let mut matched = true;
    for id in 0..total {
        if id == total / 3 {
            client.roundtrip("FAULT KILL 0")?;
        }
        let maturity = 2.0 + (id % 5) as f64;
        let recovery = 0.2 + (id % 3) as f64 * 0.1;
        match client.roundtrip(&quote_line(id, maturity, recovery, false))? {
            Response::Quote(q) => {
                priced += 1;
                matched &= q.spread_bps.to_bits() == reference_bits(seed, maturity, recovery);
            }
            other => return Err(format!("unexpected reply to quote {id}: {other:?}")),
        }
    }
    let stats = match client.roundtrip("STATS")? {
        Response::Stats(s) => s,
        other => return Err(format!("expected stats, got {other:?}")),
    };
    client.roundtrip("DRAIN")?;
    let summary = handle.wait();
    Ok(ServerChaosCase {
        name: "server/engine-death-midburst".to_string(),
        degraded: stats.dead_shards > 0,
        shed_occurred: false,
        spreads_match_clean: matched,
        survived: priced == total && matched && summary.pending == 0,
        sent: total,
        priced,
        shed: 0,
    })
}

/// A drain deadline expires with quotes stuck behind a stalled shard;
/// the journal holds them pending and resume finishes bit-identically.
fn scenario_kill_during_drain(seed: u64) -> Result<ServerChaosCase, String> {
    let journal: PathBuf = std::env::temp_dir()
        .join(format!("cds-server-chaos-drain-{}-{seed}.wal", std::process::id()));
    let _ = std::fs::remove_file(&journal);
    let handle = serve(ServerConfig {
        shards: 1,
        seed,
        journal: Some(journal.clone()),
        cadence: 2,
        drain_deadline: Duration::from_millis(100),
        ..Default::default()
    })
    .map_err(|e| e.to_string())?;
    let mut client = LineClient::connect(handle.addr())?;
    client.roundtrip("FAULT STALL 0 300")?;
    // Pipeline a small burst (under the admission bound) and wait for
    // the WAL to accept it; the 300ms stall keeps it pending.
    let total = 4u64;
    for id in 0..total {
        writeln!(client.writer, "{}", quote_line(id, 5.0, 0.4, false))
            .map_err(|e| e.to_string())?;
    }
    client.writer.flush().map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    while handle.stats().accepted < total {
        if t0.elapsed() > Duration::from_secs(5) {
            return Err("burst was never accepted".to_string());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    handle.drain();
    let summary = handle.wait();
    let report = resume_journal(&journal).map_err(|e| e.to_string())?;
    let want = reference_bits(seed, 5.0, 0.4);
    let matched = report.spreads.len() == total as usize
        && report.spreads.iter().all(|(_, _, spread, _)| spread.to_bits() == want);
    let _ = std::fs::remove_file(&journal);
    Ok(ServerChaosCase {
        name: "server/kill-during-drain-resume".to_string(),
        degraded: true,
        shed_occurred: false,
        spreads_match_clean: matched,
        survived: summary.accepted == total
            && summary.pending > 0
            && report.drained
            && report.repriced > 0
            && matched,
        sent: total,
        priced: summary.completed,
        shed: 0,
    })
}

/// A client pipelines a burst and stops reading; the in-flight bound
/// must hold and every request must still get an answer.
fn scenario_slow_consumer(seed: u64) -> Result<ServerChaosCase, String> {
    let capacity = 8u64;
    let handle = serve(ServerConfig {
        shards: 1,
        seed,
        capacity,
        ladder: LadderConfig {
            shed_watermark: 0.5,
            reject_watermark: 0.95,
            recovery_observations: 32,
        },
        ..Default::default()
    })
    .map_err(|e| e.to_string())?;
    let mut client = LineClient::connect(handle.addr())?;
    client.roundtrip("FAULT STALL 0 20")?;
    let total = 64u64;
    for id in 0..total {
        writeln!(client.writer, "{}", quote_line(id, 5.0, 0.4, true)).map_err(|e| e.to_string())?;
    }
    client.writer.flush().map_err(|e| e.to_string())?;
    // The consumer goes slow: no reads while the burst queues. The
    // server must bound its in-flight set rather than buffer our lag.
    let mut bound_held = true;
    for _ in 0..20 {
        std::thread::sleep(Duration::from_millis(10));
        bound_held &= handle.stats().inflight <= capacity;
    }
    let want = reference_bits(seed, 5.0, 0.4);
    let (mut priced, mut shed) = (0u64, 0u64);
    let mut matched = true;
    for _ in 0..total {
        match client.recv()? {
            Response::Quote(q) => {
                matched &= q.spread_bps.to_bits() == want;
                priced += 1;
            }
            Response::Shed { .. } | Response::Reject { .. } => shed += 1,
            other => return Err(format!("unexpected reply {other:?}")),
        }
    }
    client.roundtrip("DRAIN")?;
    let summary = handle.wait();
    Ok(ServerChaosCase {
        name: "server/slow-consumer-backpressure".to_string(),
        degraded: false,
        shed_occurred: shed > 0,
        spreads_match_clean: matched,
        survived: bound_held
            && priced + shed == total
            && priced > 0
            && shed > 0
            && matched
            && summary.pending == 0,
        sent: total,
        priced,
        shed,
    })
}

/// Sustained ~2x overload of a tiny deployment: the ladder must shed
/// rather than queue without bound, and priced quotes stay bit-exact.
fn scenario_overload_shed(seed: u64) -> Result<ServerChaosCase, String> {
    let capacity = 4u64;
    let handle = serve(ServerConfig { shards: 1, seed, capacity, ..Default::default() })
        .map_err(|e| e.to_string())?;
    let mut client = LineClient::connect(handle.addr())?;
    // 30ms of service per quote caps the deployment at ~33 quotes/s;
    // offering one every 15ms is a sustained 2x overload.
    client.roundtrip("FAULT STALL 0 30")?;
    let total = 40u64;
    for id in 0..total {
        writeln!(client.writer, "{}", quote_line(id, 5.0, 0.4, true)).map_err(|e| e.to_string())?;
        client.writer.flush().map_err(|e| e.to_string())?;
        std::thread::sleep(Duration::from_millis(15));
    }
    let want = reference_bits(seed, 5.0, 0.4);
    let (mut priced, mut shed) = (0u64, 0u64);
    let mut matched = true;
    let mut bound_held = true;
    for _ in 0..total {
        match client.recv()? {
            Response::Quote(q) => {
                matched &= q.spread_bps.to_bits() == want;
                priced += 1;
            }
            Response::Shed { .. } | Response::Reject { .. } => shed += 1,
            other => return Err(format!("unexpected reply {other:?}")),
        }
        bound_held &= handle.stats().inflight <= capacity;
    }
    client.roundtrip("DRAIN")?;
    let summary = handle.wait();
    Ok(ServerChaosCase {
        name: "server/overload-shed".to_string(),
        degraded: false,
        shed_occurred: shed > 0,
        spreads_match_clean: matched,
        survived: bound_held
            && priced + shed == total
            && priced > 0
            && shed > 0
            && matched
            && summary.pending == 0,
        sent: total,
        priced,
        shed,
    })
}

/// Execute the serving chaos matrix against in-process servers.
pub fn run(seed: u64) -> Result<Vec<ServerChaosCase>, String> {
    Ok(vec![
        scenario_engine_death(seed)?,
        scenario_kill_during_drain(seed)?,
        scenario_slow_consumer(seed)?,
        scenario_overload_shed(seed)?,
    ])
}

// ---------------------------------------------------------------------
// Tenant-isolation matrix (`cds-harness server-chaos --isolation`)
// ---------------------------------------------------------------------

/// Quota rate for the abuser tenant in the noisy-neighbor scenario.
const ISOLATION_ABUSER_RATE: f64 = 100.0;

/// Bucket capacity for the abuser tenant.
const ISOLATION_ABUSER_BURST: f64 = 8.0;

/// In-flight quota for the abuser tenant.
const ISOLATION_ABUSER_INFLIGHT: u64 = 8;

/// Quotes the abuser pipelines on its one connection.
const ISOLATION_FLOOD_REQUESTS: u64 = 3_000;

/// The flood must offer at least this multiple of the abuser's quota
/// rate, or the run was too slow to prove anything.
const ISOLATION_MIN_OFFERED_FACTOR: f64 = 10.0;

/// Slowloris trickles opened against the reaper alongside the flood.
const ISOLATION_FLOOD_TRICKLES: usize = 2;

/// Victim p99 under flood may be at most this factor of its solo p99…
const ISOLATION_P99_FACTOR: f64 = 50.0;

/// …with an absolute floor so microsecond-scale solo p99s don't turn
/// scheduler jitter into a verdict flip.
const ISOLATION_P99_FLOOR_MICROS: u64 = 10_000;

/// Request-line byte cap of the isolation deployments (small enough
/// that the fuzz corpus exercises the oversize path).
const ISOLATION_MAX_LINE: usize = 256;

/// A deployment whose idle reaper catches byte trickles. Reads poll
/// every 20 ms, so a trickle byte every 60 ms cannot keep every read
/// from timing out, and a connection with no complete line for 250 ms
/// is closed.
fn reaping_config(seed: u64, shards: usize) -> ServerConfig {
    ServerConfig {
        shards,
        seed,
        read_timeout: Duration::from_millis(20),
        idle_timeout: Duration::from_millis(250),
        max_line_bytes: ISOLATION_MAX_LINE,
        ..Default::default()
    }
}

/// What the abuser's pipelined flood observed.
#[derive(Debug)]
struct FloodOutcome {
    sent: u64,
    priced: u64,
    throttled: u64,
    shed: u64,
    retry_hint_positive: bool,
    duration: Duration,
}

/// Bind `tenant`, pipeline `requests` quotes without pacing, and drain
/// replies on a second thread until the trailing `PING` sentinel
/// returns. The drainer keeps the socket from exerting backpressure so
/// the flood is as hostile as a single connection can be.
fn flood_as_tenant(addr: SocketAddr, tenant: &str, requests: u64) -> Result<FloodOutcome, String> {
    let mut client = LineClient::connect(addr)?;
    match client.roundtrip(&format!("TENANT {tenant}"))? {
        Response::TenantAck { .. } => {}
        other => return Err(format!("tenant bind failed: {other:?}")),
    }
    let LineClient { mut reader, mut writer } = client;

    let started = Instant::now();
    let drainer = std::thread::spawn(move || {
        let (mut priced, mut throttled, mut shed) = (0u64, 0u64, 0u64);
        let mut retry_hint_positive = false;
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => match parse_response(line.trim()) {
                    Ok(Response::Pong) => break,
                    Ok(Response::Quote(_)) => priced += 1,
                    Ok(Response::Throttle { retry_after_ms, .. }) => {
                        throttled += 1;
                        retry_hint_positive |= retry_after_ms > 0;
                    }
                    Ok(Response::Shed { .. }) | Ok(Response::Reject { .. }) => shed += 1,
                    _ => {}
                },
            }
        }
        (priced, throttled, shed, retry_hint_positive)
    });
    for id in 0..requests {
        writeln!(writer, "{}", quote_line(id, 5.0, 0.4, false)).map_err(|e| e.to_string())?;
    }
    writeln!(writer, "PING").map_err(|e| e.to_string())?;
    writer.flush().map_err(|e| e.to_string())?;
    let (priced, throttled, shed, retry_hint_positive) =
        drainer.join().map_err(|_| "abuser reply drainer panicked".to_string())?;
    Ok(FloodOutcome {
        sent: requests,
        priced,
        throttled,
        shed,
        retry_hint_positive,
        duration: started.elapsed(),
    })
}

/// Trickle one byte at a time without ever completing a line; returns
/// true when the server closes the connection (the reaper fired) inside
/// `window`.
fn slowloris_probe(addr: SocketAddr, window: Duration) -> bool {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return false;
    };
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let started = Instant::now();
    while started.elapsed() < window {
        if stream.write_all(b"Q").is_err() {
            return true;
        }
        let mut buf = [0u8; 128];
        if matches!(stream.read(&mut buf), Ok(0)) {
            return true;
        }
        std::thread::sleep(Duration::from_millis(60));
    }
    false
}

/// Open `n` slowloris trickles, each on its own thread with a 3 s
/// window.
fn spawn_trickles(addr: SocketAddr, n: usize) -> Vec<std::thread::JoinHandle<bool>> {
    (0..n)
        .map(|_| std::thread::spawn(move || slowloris_probe(addr, Duration::from_secs(3))))
        .collect()
}

/// How many of `trickles` the reaper closed.
fn count_reaped(trickles: Vec<std::thread::JoinHandle<bool>>) -> usize {
    trickles.into_iter().map(|t| t.join().unwrap_or(false)).filter(|&reaped| reaped).count()
}

/// Everything the noisy-neighbor verdict reads, so the verdict is a
/// pure function that can be tested without a server.
#[derive(Debug)]
struct NoisyNeighborRun {
    flood: FloodOutcome,
    /// `THROTTLE` replies the default-tenant victim absorbed.
    victim_throttles: u64,
    /// Victim spreads that differ from the CPU reference bits.
    mismatches: u64,
    p99_solo_micros: u64,
    p99_flood_micros: u64,
    /// Slowloris trickles opened with the flood that the reaper closed.
    trickles_reaped: usize,
    /// Accepted quotes still pending after the drain.
    pending: u64,
}

impl NoisyNeighborRun {
    /// The clauses of the `survived` verdict that this run violates.
    fn violations(&self) -> Vec<&'static str> {
        let flood = &self.flood;
        let dur_s = flood.duration.as_secs_f64().max(1e-9);
        let offered = flood.sent as f64 / dur_s;
        let quota_ceiling = 2.0 * (ISOLATION_ABUSER_BURST + ISOLATION_ABUSER_RATE * dur_s) + 16.0;
        let p99_ceiling = ((self.p99_solo_micros as f64 * ISOLATION_P99_FACTOR) as u64)
            .max(ISOLATION_P99_FLOOR_MICROS);
        [
            (
                offered < ISOLATION_MIN_OFFERED_FACTOR * ISOLATION_ABUSER_RATE,
                "flood offered under 10x the quota",
            ),
            (flood.throttled == 0, "abuser never throttled"),
            (!flood.retry_hint_positive, "no THROTTLE carried a positive retry hint"),
            ((flood.priced as f64) > quota_ceiling, "abuser priced above its quota ceiling"),
            (self.victim_throttles > 0, "victim throttled"),
            (self.mismatches > 0, "victim spread diverged from the CPU reference"),
            (self.p99_flood_micros > p99_ceiling, "victim p99 under flood over its limit"),
            (self.trickles_reaped < ISOLATION_FLOOD_TRICKLES, "slowloris trickle not reaped"),
            (self.pending > 0, "quotes pending after the drain"),
        ]
        .into_iter()
        .filter_map(|(violated, clause)| violated.then_some(clause))
        .collect()
    }
}

/// A quota'd abuser tenant floods a pipelined connection at ≥10x its
/// rate, and two slowloris trickles open alongside it, while a
/// compliant default-tenant victim keeps pricing. The verdict is
/// [`NoisyNeighborRun::violations`].
fn scenario_noisy_neighbor(seed: u64) -> Result<ServerChaosCase, String> {
    let abuser_limits = TenantLimits {
        rate_per_s: ISOLATION_ABUSER_RATE,
        burst: ISOLATION_ABUSER_BURST,
        max_inflight: ISOLATION_ABUSER_INFLIGHT,
        weight: 1,
    };
    let handle = serve(ServerConfig {
        tenant_overrides: vec![("abuser".to_string(), abuser_limits)],
        ..reaping_config(seed, 2)
    })
    .map_err(|e| e.to_string())?;
    let addr = handle.addr();
    let want = reference_bits(seed, 5.0, 0.4);
    let trips = 120u64;

    let mut victim = LineClient::connect(addr)?;
    let (mut victim_throttles, mut mismatches) = (0u64, 0u64);
    // One victim phase of `trips` compliant round-trips; returns its p99.
    let mut victim_p99 = |first_id: u64| -> Result<u64, String> {
        let mut micros = Vec::with_capacity(trips as usize);
        for id in first_id..first_id + trips {
            let trip = compliant_trip(&mut victim, id)?;
            victim_throttles += trip.throttles;
            mismatches += u64::from(trip.bits != want);
            micros.push(trip.micros);
        }
        micros.sort_unstable();
        Ok(quantile(&micros, 0.99))
    };
    let p99_solo_micros = victim_p99(0)?;

    let trickles = spawn_trickles(addr, ISOLATION_FLOOD_TRICKLES);
    let flooder =
        std::thread::spawn(move || flood_as_tenant(addr, "abuser", ISOLATION_FLOOD_REQUESTS));
    std::thread::sleep(Duration::from_millis(5));
    let p99_flood_micros = victim_p99(10_000)?;
    let flood = flooder.join().map_err(|_| "abuser flood thread panicked".to_string())??;
    // The victim's connection may sit idle past the reaper's window
    // while the trickles are joined, so the drain goes through the
    // handle rather than over the wire.
    let trickles_reaped = count_reaped(trickles);
    handle.drain();
    let summary = handle.wait();

    let run = NoisyNeighborRun {
        flood,
        victim_throttles,
        mismatches,
        p99_solo_micros,
        p99_flood_micros,
        trickles_reaped,
        pending: summary.pending,
    };
    let violations = run.violations();
    if !violations.is_empty() {
        eprintln!("server/noisy-neighbor-flood violated: {}", violations.join("; "));
    }
    let flood = &run.flood;
    Ok(ServerChaosCase {
        name: "server/noisy-neighbor-flood".to_string(),
        degraded: false,
        shed_occurred: flood.throttled > 0,
        spreads_match_clean: run.mismatches == 0,
        survived: violations.is_empty(),
        sent: 2 * trips + flood.sent,
        priced: 2 * trips + flood.priced,
        shed: flood.throttled + flood.shed,
    })
}

/// Trickled connections that never complete a request line must be
/// closed by the idle reaper while a clean client keeps pricing.
fn scenario_slowloris_reaper(seed: u64) -> Result<ServerChaosCase, String> {
    let handle = serve(reaping_config(seed, 1)).map_err(|e| e.to_string())?;
    let addr = handle.addr();
    let opened = 3usize;
    let trickles = spawn_trickles(addr, opened);

    let want = reference_bits(seed, 5.0, 0.4);
    let mut client = LineClient::connect(addr)?;
    let trips = 10u64;
    let mut mismatches = 0u64;
    for id in 0..trips {
        let trip = compliant_trip(&mut client, id)?;
        mismatches += u64::from(trip.bits != want);
        std::thread::sleep(Duration::from_millis(30));
    }
    let reaped = count_reaped(trickles);

    client.roundtrip("DRAIN")?;
    let summary = handle.wait();
    let matched = mismatches == 0;
    Ok(ServerChaosCase {
        name: "server/slowloris-reaper".to_string(),
        degraded: false,
        shed_occurred: false,
        spreads_match_clean: matched,
        survived: reaped == opened && matched && summary.pending == 0,
        sent: trips,
        priced: trips,
        shed: 0,
    })
}

/// Torn one-shot connections and a seeded garbage corpus: every
/// reply-owing fuzz line gets exactly one typed `ERR`, nothing else
/// leaks through, and the connection still prices bit-identically.
fn scenario_protocol_fuzz(seed: u64) -> Result<ServerChaosCase, String> {
    let handle = serve(ServerConfig {
        shards: 1,
        seed,
        max_line_bytes: ISOLATION_MAX_LINE,
        ..Default::default()
    })
    .map_err(|e| e.to_string())?;
    let addr = handle.addr();

    // Torn prefixes on one-shot connections, dropped unterminated.
    let torn = torn_lines(seed, 12);
    for line in &torn {
        let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        let _ = stream.write_all(line);
        drop(stream);
    }

    let mut client = LineClient::connect(addr)?;
    let corpus = fuzz_lines(seed, 250, ISOLATION_MAX_LINE);
    let expected = corpus.iter().filter(|l| l.expect_reply).count() as u64;
    for line in &corpus {
        client.writer.write_all(&line.bytes).map_err(|e| e.to_string())?;
    }
    writeln!(client.writer, "PING").map_err(|e| e.to_string())?;
    client.writer.flush().map_err(|e| e.to_string())?;
    let (mut errs, mut strays) = (0u64, 0u64);
    loop {
        match client.recv()? {
            Response::Pong => break,
            Response::Error { .. } => errs += 1,
            _ => strays += 1,
        }
    }
    // A torn prefix can legitimately complete as a valid command (e.g.
    // `TICK 99` cut to `TICK 9`) and republish the curve, whenever its
    // connection's reader gets to it. Wait until every such publish has
    // landed, then re-publish the boot epoch so the bit-exactness check
    // has a fixed reference.
    let publishes = curve_publishes(&torn);
    let deadline = Instant::now() + Duration::from_secs(5);
    while !matches!(client.roundtrip("STATS")?, Response::Stats(s) if s.epoch >= publishes) {
        if Instant::now() >= deadline {
            return Err(format!("{publishes} torn-line curve publishes not applied within 5 s"));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    match client.roundtrip(&format!("TICK {seed}"))? {
        Response::TickAck { .. } => {}
        other => return Err(format!("epoch republish failed: {other:?}")),
    }
    let trip = compliant_trip(&mut client, 9_000)?;
    let matched = trip.bits == reference_bits(seed, 5.0, 0.4);

    client.roundtrip("DRAIN")?;
    let summary = handle.wait();
    Ok(ServerChaosCase {
        name: "server/protocol-fuzz".to_string(),
        degraded: false,
        shed_occurred: false,
        spreads_match_clean: matched,
        survived: errs == expected && strays == 0 && matched && summary.pending == 0,
        sent: corpus.len() as u64 + 1,
        priced: 1,
        shed: 0,
    })
}

/// Execute the tenant-isolation matrix against in-process servers. The
/// committed baseline lives in `results/tenant_isolation_baseline.json`
/// and is gated on the same verdicts as the chaos matrix
/// ([`ISOLATION_VERDICTS`]).
pub fn run_isolation(seed: u64) -> Result<Vec<ServerChaosCase>, String> {
    Ok(vec![
        scenario_noisy_neighbor(seed)?,
        scenario_slowloris_reaper(seed)?,
        scenario_protocol_fuzz(seed)?,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A run every clause of the noisy-neighbor verdict accepts: 3,000
    /// quotes offered in 100 ms (30,000/s), 40 priced under a quota
    /// ceiling of 52, both trickles reaped.
    fn held() -> NoisyNeighborRun {
        NoisyNeighborRun {
            flood: FloodOutcome {
                sent: 3_000,
                priced: 40,
                throttled: 2_900,
                shed: 60,
                retry_hint_positive: true,
                duration: Duration::from_millis(100),
            },
            victim_throttles: 0,
            mismatches: 0,
            p99_solo_micros: 200,
            p99_flood_micros: 5_000,
            trickles_reaped: ISOLATION_FLOOD_TRICKLES,
            pending: 0,
        }
    }

    fn violated(edit: impl FnOnce(&mut NoisyNeighborRun)) -> Vec<&'static str> {
        let mut run = held();
        edit(&mut run);
        run.violations()
    }

    #[test]
    fn held_bulkheads_survive() {
        assert_eq!(held().violations(), Vec::<&str>::new());
        // The p99 limit is 50x the solo p99 once that clears the floor.
        assert!(violated(|r| {
            r.p99_solo_micros = 1_000;
            r.p99_flood_micros = 50_000;
        })
        .is_empty());
    }

    #[test]
    fn each_violation_flips_survived() {
        type Edit = fn(&mut NoisyNeighborRun);
        let cases: [(&str, Edit); 9] = [
            // 3,000 quotes over 5 s is 600/s, under 10x the 100/s quota.
            ("flood offered under 10x the quota", |r| r.flood.duration = Duration::from_secs(5)),
            ("abuser never throttled", |r| r.flood.throttled = 0),
            ("no THROTTLE carried a positive retry hint", |r| r.flood.retry_hint_positive = false),
            ("abuser priced above its quota ceiling", |r| r.flood.priced = 53),
            ("victim throttled", |r| r.victim_throttles = 1),
            ("victim spread diverged from the CPU reference", |r| r.mismatches = 1),
            ("victim p99 under flood over its limit", |r| r.p99_flood_micros = 10_001),
            ("slowloris trickle not reaped", |r| r.trickles_reaped = ISOLATION_FLOOD_TRICKLES - 1),
            ("quotes pending after the drain", |r| r.pending = 1),
        ];
        for (clause, edit) in cases {
            assert_eq!(violated(edit), vec![clause]);
        }
    }
}

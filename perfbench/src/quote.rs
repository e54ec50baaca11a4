//! `quote-serve`: open-loop Poisson `QUOTE`s over one loopback
//! connection to an in-process, in-memory `cds-server` with 2 shards,
//! with one `TICKPT` after every 100 quotes, at a fixed rate ladder.
//! The traced run also times the write-ahead journal's `accept`/`done`
//! on the run's priced quotes, in a journal inside the checkout.
//!
//! Each request is timed from the moment it was *due*, not from when it
//! was sent, so a stall in the generator or the server shows up in the
//! latency of every request behind it. How late the generator ran is
//! measured too; a run whose generator fell behind by more than the
//! latency limit is reported as invalid, with no result.
//!
//! Oracle: every priced reply must be `to_bits`-equal to
//! `CpuCdsEngine::price` on the market of the reply's epoch, which the
//! benchmark replays from its own `TICKPT` sequence. Every `TICKPT` must
//! be acknowledged with the next epoch and no zero-delta flag.

use crate::report::{Outcome, LATENCY_LIMIT_MS};
use crate::stats::{median, quantile, tail_q, Rng};
use crate::trace::Tracer;
use crate::RunArgs;
use cds_cpu::CpuCdsEngine;
use cds_engine::incremental::CurveKind;
use cds_quant::curve::Curve;
use cds_quant::option::{CdsOption, MarketData, PaymentFrequency};
use cds_server::proto::{
    f64_to_wire, format_response, parse_request, parse_response, Priority, Response, StatsReply,
};
use cds_server::server::{serve, ServerConfig, ServerHandle};
use cds_server::snapshot::CurveBook;
use cds_server::wal::WalWriter;
use cds_server::{FairQueue, QuoteLedger};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::path::Path;
use std::sync::mpsc::{channel, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Standard contracts the quotes are drawn from, most liquid first:
/// `(maturity in years, frequency, recovery)`.
const SHAPES: [(f64, PaymentFrequency, f64); 16] = [
    (5.0, PaymentFrequency::Quarterly, 0.40),
    (3.0, PaymentFrequency::Quarterly, 0.40),
    (7.0, PaymentFrequency::Quarterly, 0.40),
    (10.0, PaymentFrequency::Quarterly, 0.40),
    (1.0, PaymentFrequency::Quarterly, 0.40),
    (2.0, PaymentFrequency::Quarterly, 0.40),
    (5.0, PaymentFrequency::Quarterly, 0.25),
    (5.0, PaymentFrequency::SemiAnnual, 0.40),
    (4.0, PaymentFrequency::Quarterly, 0.40),
    (3.0, PaymentFrequency::Quarterly, 0.25),
    (7.0, PaymentFrequency::Quarterly, 0.25),
    (10.0, PaymentFrequency::SemiAnnual, 0.40),
    (5.0, PaymentFrequency::Annual, 0.40),
    (5.0, PaymentFrequency::Monthly, 0.40),
    (1.0, PaymentFrequency::Monthly, 0.25),
    (6.0, PaymentFrequency::Quarterly, 0.40),
];

/// Zipf exponent of the contract popularity.
const ZIPF_S: f64 = 1.1;

/// One `TICKPT` follows every this many quotes.
const QUOTES_PER_TICK: u64 = 100;

/// Curve knots a `TICKPT` may move: those inside the contracts'
/// 10-year horizon.
const TICK_HORIZON_YEARS: f64 = 10.0;

/// Server engine shards.
const SHARDS: usize = 2;

/// Idle `PING` round trips in the traced run.
const PINGS: usize = 200;

/// Server boots timed per untraced run.
const BOOTS: usize = 15;

/// Pause between server boot and the first connect (see [`boot`]).
const CONNECT_PAUSE: Duration = Duration::from_millis(5);

/// How long to wait for the last replies of a rung.
const REPLY_GRACE: Duration = Duration::from_secs(3);

fn option_of(shape: u8) -> CdsOption {
    let (maturity, frequency, recovery) = SHAPES[shape as usize];
    CdsOption::new(maturity, frequency, recovery)
}

/// Offered rates, quotes per second: nominal first, overload last.
const RATES: [f64; 4] = [2000.0, 5000.0, 10000.0, 20000.0];

/// Share of the window each rate runs for.
const SHARES: [f64; 4] = [0.4, 0.2, 0.2, 0.2];

/// Size of one quote run.
#[derive(Debug, Clone, Copy)]
pub struct QuoteConfig {
    /// Server boots timed per run; `setup_s` is their median.
    pub setups: usize,
    /// Flip one bit of the first priced reply before the oracle sees it
    /// (self-test only: proves the oracle can fail).
    pub corrupt: bool,
}

impl QuoteConfig {
    /// The benchmark's run: 15 timed boots.
    pub fn full() -> QuoteConfig {
        QuoteConfig { setups: BOOTS, corrupt: false }
    }
}

/// What came back for one request.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Answer {
    Pending,
    Priced { bits: u64, epoch: u64, at: Instant },
    Refused { rung: u8 },
    Error,
}

#[derive(Debug, Clone)]
struct QuoteRec {
    id: u64,
    shape: u8,
    due: Instant,
    lag_s: f64,
    answer: Answer,
    /// Set by the oracle.
    correct: bool,
}

/// A `TICKPT` the benchmark sent, in send order (tick `k` publishes
/// epoch `k + 1`).
#[derive(Debug, Clone, Copy)]
struct TickPt {
    curve: CurveKind,
    knot: usize,
    value: f64,
}

/// Replace one knot's value, as the server's `publish_point` does.
fn apply_point(market: &mut MarketData<f64>, t: &TickPt) {
    let target = match t.curve {
        CurveKind::Interest => &mut market.interest,
        CurveKind::Hazard => &mut market.hazard,
    };
    let mut points = target.points().to_vec();
    points[t.knot].value = t.value;
    *target = Curve::new(points).expect("bumped knot values stay valid");
}

/// The seeded request generator.
struct Generator {
    rng: Rng,
    zipf_cdf: Vec<f64>,
    next_id: u64,
    market: MarketData<f64>,
    knots: [Vec<usize>; 2],
    ticks: Vec<TickPt>,
}

impl Generator {
    fn new(seed: u64, market: MarketData<f64>) -> Generator {
        let weights: Vec<f64> = (1..=SHAPES.len()).map(|k| 1.0 / (k as f64).powf(ZIPF_S)).collect();
        let total: f64 = weights.iter().sum();
        let zipf_cdf = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w / total;
                Some(*acc)
            })
            .collect();
        let within = |c: &Curve<f64>| -> Vec<usize> {
            (0..c.len()).filter(|&k| c.points()[k].tenor <= TICK_HORIZON_YEARS).collect()
        };
        let knots = [within(&market.interest), within(&market.hazard)];
        Generator {
            rng: Rng::new(seed, 0x9007e),
            zipf_cdf,
            next_id: 1,
            market,
            knots,
            ticks: Vec::new(),
        }
    }

    fn shape(&mut self) -> u8 {
        let u = self.rng.unit();
        self.zipf_cdf.iter().position(|&c| u < c).unwrap_or(SHAPES.len() - 1) as u8
    }

    fn tick(&mut self) -> TickPt {
        let hazard = self.rng.next_u64() & 1 == 1;
        let (curve, list) = if hazard {
            (CurveKind::Hazard, &self.knots[1])
        } else {
            (CurveKind::Interest, &self.knots[0])
        };
        let knot = list[self.rng.below(list.len())];
        let old = match curve {
            CurveKind::Interest => self.market.interest.points()[knot].value,
            CurveKind::Hazard => self.market.hazard.points()[knot].value,
        };
        let sign = if self.rng.next_u64() & 1 == 0 { 1.0 } else { -1.0 };
        let bump = sign * (0.5 + self.rng.unit()) * 1e-4;
        let mut value = old * (1.0 + bump) + bump * 1e-6;
        if value.to_bits() == old.to_bits() {
            value = f64::from_bits(old.to_bits() + 1);
        }
        let t = TickPt { curve, knot, value };
        apply_point(&mut self.market, &t);
        self.ticks.push(t);
        t
    }
}

/// One request of a rung's schedule.
enum Req {
    Quote(usize),
    Tick(usize),
}

/// A client connection: writer half plus a reader thread that stamps
/// every reply line on arrival.
struct Conn {
    writer: TcpStream,
    replies: Receiver<(Instant, String)>,
    reader: JoinHandle<()>,
}

impl Conn {
    fn open(handle: &ServerHandle) -> Result<Conn, String> {
        let stream = TcpStream::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        let read_half = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        let (tx, replies) = channel();
        let reader = std::thread::spawn(move || {
            let mut reader = BufReader::with_capacity(1 << 16, read_half);
            let mut line = String::new();
            loop {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {
                        if tx.send((Instant::now(), line.trim_end().to_string())).is_err() {
                            break;
                        }
                    }
                }
            }
        });
        Ok(Conn { writer: stream, replies, reader })
    }

    fn send(&mut self, text: &str) -> Result<(), String> {
        self.writer.write_all(text.as_bytes()).map_err(|e| format!("send: {e}"))
    }

    /// Send one line and wait for the first reply `want` accepts.
    fn call<T>(&mut self, line: &str, want: impl Fn(Response) -> Option<T>) -> Result<T, String> {
        self.send(&format!("{line}\n"))?;
        loop {
            let (_, text) = self
                .replies
                .recv_timeout(REPLY_GRACE)
                .map_err(|_| format!("no reply to {line}"))?;
            if let Some(v) = parse_response(&text).ok().and_then(&want) {
                return Ok(v);
            }
        }
    }

    fn ping(&mut self) -> Result<(), String> {
        self.call("PING", |r| matches!(r, Response::Pong).then_some(()))
    }

    fn stats(&mut self) -> Result<StatsReply, String> {
        self.call("STATS", |r| match r {
            Response::Stats(s) => Some(s),
            _ => None,
        })
    }

    /// Close the connection and wait for the reader thread to end.
    fn close(self) {
        let _ = self.writer.shutdown(Shutdown::Both);
        drop(self.replies);
        let _ = self.reader.join();
    }
}

/// Everything one rung measured.
struct Rung {
    rate: f64,
    seconds: f64,
    quotes: std::ops::Range<usize>,
    tick_failures: u64,
    unanswered: u64,
    stats: StatsReply,
}

/// Per-rung latency summary, after the oracle ran.
#[derive(Debug, Clone, Copy)]
struct RungSummary {
    sent: usize,
    p50_s: f64,
    tail_s: f64,
    tail_q: f64,
    ok_frac: f64,
    ok_per_s: f64,
    lag_p50_s: f64,
    lag_p99_s: f64,
    backlog_ok: bool,
}

/// Latency from due time; a request not priced correctly never meets
/// any limit and sorts as infinitely late.
fn latency(q: &QuoteRec) -> f64 {
    match q.answer {
        Answer::Priced { at, .. } if q.correct => at.saturating_duration_since(q.due).as_secs_f64(),
        _ => f64::INFINITY,
    }
}

/// Quotes per latency window. A rung's percentiles are the median over
/// its windows of each window's percentile, so one host stall moves one
/// window, not the run's figure.
const WINDOW_QUOTES: usize = 1000;

/// Median over consecutive windows of `values` (in due order) of each
/// window's `q` quantile; one window when there are fewer than two.
fn windowed(values: &[f64], q: f64) -> f64 {
    let per_window: Vec<f64> = values
        .chunks(if values.len() < 2 * WINDOW_QUOTES { values.len().max(1) } else { WINDOW_QUOTES })
        .map(|w| {
            let mut w = w.to_vec();
            w.sort_by(f64::total_cmp);
            quantile(&w, q).unwrap_or(f64::INFINITY)
        })
        .collect();
    let mut sorted = per_window;
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5).unwrap_or(f64::INFINITY)
}

fn summarize(rung: &Rung, quotes: &[QuoteRec]) -> RungSummary {
    let limit = LATENCY_LIMIT_MS * 1e-3;
    let qs = &quotes[rung.quotes.clone()];
    let lat: Vec<f64> = qs.iter().map(latency).collect();
    let lags: Vec<f64> = qs.iter().map(|q| q.lag_s).collect();
    let ok = lat.iter().filter(|&&l| l <= limit).count();
    let mut last_quarter = lat[lat.len() * 3 / 4..].to_vec();
    last_quarter.sort_by(f64::total_cmp);
    let q = tail_q(lat.len().min(WINDOW_QUOTES));
    RungSummary {
        sent: qs.len(),
        p50_s: windowed(&lat, 0.5),
        tail_s: windowed(&lat, q),
        tail_q: q,
        ok_frac: ok as f64 / qs.len().max(1) as f64,
        ok_per_s: ok as f64 / rung.seconds,
        lag_p50_s: windowed(&lags, 0.5),
        lag_p99_s: windowed(&lags, 0.99),
        backlog_ok: quantile(&last_quarter, 0.99).is_some_and(|l| l <= limit),
    }
}

/// The live system under load: server, connection, generator, records.
struct LiveRun {
    handle: ServerHandle,
    conn: Conn,
    gen: Generator,
    quotes: Vec<QuoteRec>,
    acked_ticks: usize,
    /// Request lines sent and replies parsed, kept by the traced run
    /// for the protocol probes.
    lines: Option<(Vec<String>, Vec<Response>)>,
}

impl LiveRun {
    /// Offer `rate` quotes/s for `seconds`, then collect the replies.
    fn rung(&mut self, rate: f64, seconds: f64, tracer: &mut Tracer) -> Result<Rung, String> {
        let root = tracer.begin(rung_span(rate), None);
        // The schedule: Poisson arrivals, a tick after every 100th quote.
        let mut schedule: Vec<(f64, Req)> = Vec::new();
        let first = self.quotes.len();
        let mut t = 0.0;
        loop {
            t += self.gen.rng.exp_interval(rate);
            if t >= seconds {
                break;
            }
            let id = self.gen.next_id;
            self.gen.next_id += 1;
            let shape = self.gen.shape();
            self.quotes.push(QuoteRec {
                id,
                shape,
                due: Instant::now(),
                lag_s: 0.0,
                answer: Answer::Pending,
                correct: false,
            });
            schedule.push((t, Req::Quote(self.quotes.len() - 1)));
            if id.is_multiple_of(QUOTES_PER_TICK) {
                self.gen.tick();
                schedule.push((t, Req::Tick(self.gen.ticks.len() - 1)));
            }
        }
        let ticks_before = self.acked_ticks;
        let ticks_in_rung = schedule.iter().filter(|r| matches!(r.1, Req::Tick(_))).count();

        // Send: everything due goes out in one write, then sleep until
        // the next due time.
        let start = Instant::now() + Duration::from_millis(2);
        let mut next = 0;
        let mut buf = String::new();
        while next < schedule.len() {
            let due = start + Duration::from_secs_f64(schedule[next].0);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
                continue;
            }
            buf.clear();
            let batch_start = next;
            while next < schedule.len() && start + Duration::from_secs_f64(schedule[next].0) <= now
            {
                let line_start = buf.len();
                match schedule[next].1 {
                    Req::Quote(i) => {
                        let q = &self.quotes[i];
                        let (m, f, r) = SHAPES[q.shape as usize];
                        let freq = match f {
                            PaymentFrequency::Annual => "A",
                            PaymentFrequency::SemiAnnual => "S",
                            PaymentFrequency::Quarterly => "Q",
                            PaymentFrequency::Monthly => "M",
                        };
                        buf.push_str(&format!(
                            "QUOTE {} {} {freq} {}\n",
                            q.id,
                            f64_to_wire(m),
                            f64_to_wire(r)
                        ));
                    }
                    Req::Tick(k) => {
                        let t = self.gen.ticks[k];
                        buf.push_str(&format!(
                            "TICKPT {} {} {}\n",
                            t.curve,
                            t.knot,
                            f64_to_wire(t.value)
                        ));
                    }
                }
                if let Some((lines, _)) = self.lines.as_mut() {
                    lines.push(buf[line_start..buf.len() - 1].to_string());
                }
                next += 1;
            }
            let span = tracer.begin("gen.send", root);
            self.conn.send(&buf)?;
            tracer.end(span);
            let sent = Instant::now();
            for (due_s, req) in &schedule[batch_start..next] {
                if let Req::Quote(i) = req {
                    let q = &mut self.quotes[*i];
                    q.due = start + Duration::from_secs_f64(*due_s);
                    q.lag_s = sent.saturating_duration_since(q.due).as_secs_f64();
                }
            }
        }

        // Collect until every request of the rung is answered.
        let collect = tracer.begin("gen.collect", root);
        let mut outstanding = (self.quotes.len() - first) + ticks_in_rung;
        let mut tick_failures = 0u64;
        let deadline = start + Duration::from_secs_f64(seconds) + REPLY_GRACE;
        let base_id = self.quotes.get(first).map(|q| q.id);
        while outstanding > 0 {
            let wait = deadline.saturating_duration_since(Instant::now());
            let Ok((at, text)) = self.conn.replies.recv_timeout(wait) else { break };
            let Ok(resp) = parse_response(&text) else {
                tick_failures += 1;
                continue;
            };
            let mut answer = |id: u64, a: Answer| {
                let Some(i) = base_id.and_then(|b| id.checked_sub(b)).map(|d| first + d as usize)
                else {
                    return;
                };
                if let Some(q) = self.quotes.get_mut(i) {
                    if q.answer == Answer::Pending {
                        q.answer = a;
                        outstanding -= 1;
                    }
                }
            };
            match &resp {
                Response::Quote(q) => answer(
                    q.id,
                    Answer::Priced { bits: q.spread_bps.to_bits(), epoch: q.epoch, at },
                ),
                Response::Shed { id, rung, .. } | Response::Reject { id, rung, .. } => {
                    answer(*id, Answer::Refused { rung: rung.index() as u8 })
                }
                Response::Throttle { id, .. } => answer(*id, Answer::Refused { rung: 0 }),
                Response::Error { id: Some(id), .. } => answer(*id, Answer::Error),
                Response::TickPointAck { epoch, zero_delta } => {
                    self.acked_ticks += 1;
                    outstanding -= 1;
                    if *epoch != self.acked_ticks as u64 || *zero_delta {
                        tick_failures += 1;
                    }
                }
                Response::Error { id: None, .. } => {
                    self.acked_ticks += 1;
                    outstanding -= 1;
                    tick_failures += 1;
                }
                _ => {}
            }
            if let Some((_, replies)) = self.lines.as_mut() {
                replies.push(resp);
            }
        }
        tracer.end(collect);
        let unanswered = ticks_in_rung.saturating_sub(self.acked_ticks - ticks_before) as u64;
        self.acked_ticks = ticks_before + ticks_in_rung;
        let stats = tracer.span("server.stats", root, || self.conn.stats())?;
        tracer.end(root);
        Ok(Rung {
            rate,
            seconds,
            quotes: first..self.quotes.len(),
            tick_failures: tick_failures + unanswered,
            unanswered: self.quotes[first..].iter().filter(|q| q.answer == Answer::Pending).count()
                as u64,
            stats,
        })
    }
}

fn rung_span(rate: f64) -> &'static str {
    match rate as u64 {
        2000 => "quote.rung.r2000",
        5000 => "quote.rung.r5000",
        10000 => "quote.rung.r10000",
        20000 => "quote.rung.r20000",
        _ => "quote.rung",
    }
}

/// Check every priced reply against the replayed market of its epoch.
/// Returns the number of wrong answers.
fn oracle(
    seed: u64,
    ticks: &[TickPt],
    quotes: &mut [QuoteRec],
    corrupt: bool,
    tracer: &mut Tracer,
) -> u64 {
    if corrupt {
        if let Some(q) = quotes.iter_mut().find(|q| matches!(q.answer, Answer::Priced { .. })) {
            if let Answer::Priced { bits, .. } = &mut q.answer {
                *bits ^= 1;
            }
        }
    }
    let mut by_epoch: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, q) in quotes.iter().enumerate() {
        if let Answer::Priced { epoch, .. } = q.answer {
            by_epoch.entry(epoch).or_default().push(i);
        }
    }
    let mut wrong = 0u64;
    let mut market = MarketData::paper_workload(seed);
    let mut epoch = 0u64;
    for (&e, members) in &by_epoch {
        if e as usize > ticks.len() {
            wrong += members.len() as u64; // an epoch the benchmark never published
            continue;
        }
        while epoch < e {
            apply_point(&mut market, &ticks[epoch as usize]);
            epoch += 1;
        }
        let engine = tracer.span("engine.build", None, || CpuCdsEngine::new(&market));
        let mut expected: [Option<u64>; SHAPES.len()] = [None; SHAPES.len()];
        for &i in members {
            let q = &mut quotes[i];
            let want = *expected[q.shape as usize].get_or_insert_with(|| {
                let option = option_of(q.shape);
                tracer.span("engine.price", None, || engine.price(&option).spread_bps.to_bits())
            });
            q.correct = matches!(q.answer, Answer::Priced { bits, .. } if bits == want);
            if !q.correct {
                wrong += 1;
            }
        }
    }
    wrong
}

/// Boot the server and connect; returns once `PING` is answered, with
/// the seconds that took. The benchmark pauses between boot and connect,
/// and does not count the pause: the acceptor polls every 2 ms, and a
/// connect made at once races its first poll, an outcome that flips
/// with host load between ~0.6 ms and ~2.7 ms. After the pause the
/// connect lands at a random phase of the poll instead.
fn boot(seed: u64) -> Result<(ServerHandle, Conn, f64), String> {
    let config = ServerConfig { shards: SHARDS, seed, ..ServerConfig::default() };
    let t0 = Instant::now();
    let handle = serve(config).map_err(|e| format!("server boot: {e}"))?;
    let booted = t0.elapsed();
    std::thread::sleep(CONNECT_PAUSE);
    let t1 = Instant::now();
    let mut conn = Conn::open(&handle)?;
    conn.ping()?;
    Ok((handle, conn, (booted + t1.elapsed()).as_secs_f64()))
}

fn shut_down(handle: ServerHandle, conn: Conn) {
    conn.close();
    handle.drain();
    handle.wait();
}

/// Run the workload; the traced run adds the per-layer probes.
pub fn run(args: &RunArgs, cfg: &QuoteConfig, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let wal_dir = args.out_dir.join(format!("wal-{}", std::process::id()));
    let result = run_inner(args, cfg, tracer, &mut outcome, &wal_dir);
    let _ = std::fs::remove_dir_all(&wal_dir);
    result.map(|()| outcome)
}

fn run_inner(
    args: &RunArgs,
    cfg: &QuoteConfig,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
    wal_dir: &Path,
) -> Result<(), String> {
    let setups = if tracer.is_on() { 1 } else { cfg.setups };
    let mut setup_times = Vec::new();
    let mut live = None;
    for _ in 0..setups {
        if let Some((handle, conn)) = live.take() {
            shut_down(handle, conn);
        }
        let (handle, conn, secs) = tracer.span("setup", None, || boot(args.seed))?;
        setup_times.push(secs);
        live = Some((handle, conn));
    }
    let (handle, mut conn) = live.expect("at least one boot ran");

    let mut pings = Vec::new();
    if tracer.is_on() {
        for _ in 0..PINGS {
            let span = tracer.begin("server.ping", None);
            conn.ping()?;
            pings.push(tracer.end(span));
        }
    }
    let mut live_run = LiveRun {
        handle,
        conn,
        gen: Generator::new(args.seed, MarketData::paper_workload(args.seed)),
        quotes: Vec::new(),
        acked_ticks: 0,
        lines: tracer.is_on().then(|| (Vec::new(), Vec::new())),
    };

    // The traced run first offers the nominal rate untraced, for the
    // tracing overhead.
    let mut quiet = Tracer::off();
    let baseline = if tracer.is_on() {
        Some(live_run.rung(RATES[0], args.seconds * SHARES[0] / 2.0, &mut quiet)?)
    } else {
        None
    };
    let mut rungs = Vec::new();
    for (&rate, &share) in RATES.iter().zip(&SHARES) {
        rungs.push(live_run.rung(rate, args.seconds * share, tracer)?);
    }
    let LiveRun { handle, conn, gen, mut quotes, lines, .. } = live_run;
    shut_down(handle, conn);

    let span = tracer.begin("oracle", None);
    let wrong = oracle(args.seed, &gen.ticks, &mut quotes, cfg.corrupt, tracer);
    tracer.end(span);
    let errors = quotes.iter().filter(|q| q.answer == Answer::Error).count() as u64;
    let all_rungs: Vec<&Rung> = baseline.iter().chain(&rungs).collect();
    let tick_failures: u64 = all_rungs.iter().map(|r| r.tick_failures).sum();
    let unanswered: u64 = all_rungs.iter().map(|r| r.unanswered).sum();
    outcome.attempted += quotes.len() as u64 + gen.ticks.len() as u64;
    outcome.failed += wrong + errors + unanswered + tick_failures;
    let refused = quotes.iter().filter(|q| matches!(q.answer, Answer::Refused { .. })).count();

    let summaries: Vec<RungSummary> = rungs.iter().map(|r| summarize(r, &quotes)).collect();
    let limit_s = LATENCY_LIMIT_MS * 1e-3;
    for (r, s) in rungs.iter().zip(&summaries) {
        println!(
            "rate {:>6.0}/s: sent {:>6}, p50 {:.1} us, p{:.0} {:.1} us, ok_frac {:.4}, lag p99 {:.1} us, backlog {}",
            r.rate,
            s.sent,
            s.p50_s * 1e6,
            s.tail_q * 100.0,
            s.tail_s * 1e6,
            s.ok_frac,
            s.lag_p99_s * 1e6,
            if s.backlog_ok { "steady" } else { "growing" }
        );
        // Late wake-ups make the lag's tail spiky on a busy host; the
        // generator has fallen behind when the typical request is late.
        if s.lag_p50_s > limit_s {
            return Err(format!(
                "invalid run: generator fell behind at {}/s (lag p50 {:.0} us > {LATENCY_LIMIT_MS} ms)",
                r.rate,
                s.lag_p50_s * 1e6
            ));
        }
    }
    let nominal = summaries[0];
    let overload = summaries[summaries.len() - 1];
    let capacity = rungs
        .iter()
        .zip(&summaries)
        .filter(|(_, s)| s.ok_frac >= 0.99 && s.backlog_ok)
        .map(|(r, _)| r.rate)
        .fold(0.0, f64::max);
    println!("quote_p50_us = {:.1} us", nominal.p50_s * 1e6);
    println!(
        "quote_p99_us = {:.1} us (p{:.0} over {} quotes)",
        nominal.tail_s * 1e6,
        nominal.tail_q * 100.0,
        nominal.sent
    );
    println!(
        "quote_ok_frac = {:.4} at {}/s within {LATENCY_LIMIT_MS} ms",
        overload.ok_frac, RATES[3]
    );
    println!("quote_capacity_per_s = {capacity}");
    println!(
        "fail_frac = {:.4} ({refused} refused, {wrong} wrong, {errors} errors, {unanswered} unanswered, {tick_failures} tick failures of {} attempted)",
        (refused as u64 + outcome.failed) as f64 / outcome.attempted.max(1) as f64,
        outcome.attempted
    );

    if !tracer.is_on() {
        outcome.set("throughput_per_s", overload.ok_per_s);
        outcome.set("setup_s", median(&setup_times));
        outcome.set("peak_rss_mb", crate::stats::peak_rss_mb());
        return Ok(());
    }

    // Per-rate rows.
    let names = [
        ("quote.p50_us.r2000", "quote.p99_us.r2000", "quote.ok_frac.r2000"),
        ("quote.p50_us.r5000", "quote.p99_us.r5000", "quote.ok_frac.r5000"),
        ("quote.p50_us.r10000", "quote.p99_us.r10000", "quote.ok_frac.r10000"),
        ("quote.p50_us.r20000", "quote.p99_us.r20000", "quote.ok_frac.r20000"),
    ];
    // An unbounded percentile (more failures than the tail leaves room
    // for) is reported as the rung's whole length.
    let bounded = |v: f64, r: &Rung| if v.is_finite() { v } else { r.seconds };
    for ((p50, p99, ok), (r, s)) in names.iter().zip(rungs.iter().zip(&summaries)) {
        outcome.set(p50, bounded(s.p50_s, r) * 1e6);
        outcome.set(p99, bounded(s.tail_s, r) * 1e6);
        outcome.set(ok, s.ok_frac);
    }
    let worst_lag = summaries.iter().map(|s| s.lag_p99_s).fold(0.0, f64::max);
    outcome.set("gen.lag_p99_us", worst_lag * 1e6);
    if let Some(b) = &baseline {
        let untraced = summarize(b, &quotes);
        outcome.set("trace.overhead_frac", nominal.p50_s / untraced.p50_s - 1.0);
    }

    // Server counters, as `STATS` reported them after the last rung.
    let last = rungs.last().expect("four rungs ran").stats;
    let sent = quotes.len() as f64;
    outcome.set("server.hedges", last.hedges as f64);
    outcome.set("server.retries", last.retries as f64);
    outcome.set("server.hedge_frac", last.hedges as f64 / last.accepted.max(1) as f64);
    outcome.set("server.shed_frac", (last.shed + last.rejected) as f64 / sent);
    outcome.set("server.deadline_misses", last.deadline_misses as f64);
    let worst_reply = quotes
        .iter()
        .filter_map(|q| match q.answer {
            Answer::Refused { rung } => Some(rung),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    let worst_stats = all_rungs.iter().map(|r| r.stats.rung).max().unwrap_or(0);
    outcome.set("server.worst_rung", f64::from(worst_reply.max(worst_stats)));
    let ping_us = median(&pings) * 1e6;
    outcome.set("server.ping_rtt_us", ping_us);
    outcome.set("engine.price_us", median(&tracer.durations("engine.price")) * 1e6);
    outcome.set("engine.build_us", median(&tracer.durations("engine.build")) * 1e6);

    // Single-layer probes over the run's own requests and replies.
    let (lines, replies) = lines.expect("the traced run keeps its lines");
    let per_call_ns = |tracer: &mut Tracer, name: &'static str, n: usize, f: &mut dyn FnMut()| {
        let span = tracer.begin(name, None);
        f();
        tracer.end(span) * 1e9 / n.max(1) as f64
    };
    let parse_ns = per_call_ns(tracer, "proto.parse_request", lines.len(), &mut || {
        for l in &lines {
            std::hint::black_box(parse_request(l).is_ok());
        }
    });
    let format_ns = per_call_ns(tracer, "proto.format_response", replies.len(), &mut || {
        for r in &replies {
            std::hint::black_box(format_response(r));
        }
    });
    let queue: FairQueue<u64> = FairQueue::default();
    let push_pop_ns = per_call_ns(tracer, "fair.push_pop", quotes.len(), &mut || {
        for q in &quotes {
            queue.push(0, 1, q.id);
            std::hint::black_box(queue.pop_timeout(Duration::ZERO));
        }
    });
    let ledger = QuoteLedger::new();
    let priced: Vec<(u64, f64)> = quotes
        .iter()
        .filter_map(|q| match q.answer {
            Answer::Priced { bits, .. } => Some((q.id, f64::from_bits(bits))),
            _ => None,
        })
        .collect();
    let record_ns = per_call_ns(tracer, "hedge.record", priced.len(), &mut || {
        for &(id, spread) in &priced {
            std::hint::black_box(ledger.record(0, id, spread));
        }
    });
    outcome.set("proto.parse_ns", parse_ns);
    outcome.set("proto.format_ns", format_ns);
    outcome.set("fair.push_pop_ns", push_pop_ns);
    outcome.set("hedge.record_ns", record_ns);

    let book = CurveBook::new(args.seed);
    for t in &gen.ticks {
        let span = tracer.begin("snapshot.publish_point", None);
        book.publish_point(t.curve, t.knot, t.value).map_err(|e| format!("publish_point: {e}"))?;
        tracer.end(span);
    }
    outcome.set(
        "snapshot.publish_point_us",
        median(&tracer.durations("snapshot.publish_point")) * 1e6,
    );

    // The write-ahead journal, fed the run's priced quotes. The served
    // path above runs without it.
    std::fs::create_dir_all(wal_dir).map_err(|e| format!("journal dir: {e}"))?;
    let wal = WalWriter::create(&wal_dir.join("quotes.wal"), args.seed, 64)
        .map_err(|e| format!("wal: {e}"))?;
    for &(id, spread) in priced.iter().take(rungs[0].quotes.len()) {
        let option = option_of(quotes[(id - 1) as usize].shape);
        let span = tracer.begin("wal.accept", None);
        let seq =
            wal.accept(id, &option, Priority::High).map_err(|e| format!("wal accept: {e}"))?;
        tracer.end(span);
        let span = tracer.begin("wal.done", None);
        wal.done(seq, spread).map_err(|e| format!("wal done: {e}"))?;
        tracer.end(span);
    }
    let pct = |name: &str, q: f64| {
        let mut v = tracer.durations(name);
        v.sort_by(f64::total_cmp);
        quantile(&v, q).unwrap_or(0.0) * 1e6
    };
    outcome.set("wal.accept_us_p50", pct("wal.accept", 0.5));
    outcome.set("wal.accept_us_p99", pct("wal.accept", 0.99));
    outcome.set("wal.done_us_p50", pct("wal.done", 0.5));
    outcome.set("wal.done_us_p99", pct("wal.done", 0.99));

    // The served path has no journal, so it is not part of the sum.
    let explained_us = (parse_ns + format_ns + push_pop_ns + record_ns) * 1e-3
        + outcome.get("engine.price_us").unwrap_or(0.0)
        + ping_us;
    outcome.set("server.unexplained_us", nominal.p50_s * 1e6 - explained_us);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(corrupt: bool) -> QuoteConfig {
        QuoteConfig { setups: 2, corrupt }
    }

    fn args(trace: bool) -> RunArgs {
        let dir = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        RunArgs { seed: 21, seconds: 0.5, trace, out_dir: dir }
    }

    #[test]
    fn clean_run_is_correct_and_reports_every_end_to_end_metric() {
        let o = run(&args(false), &small(false), &mut Tracer::off()).expect("valid run");
        assert!(o.correct(), "{o:?}");
        for m in crate::report::END_TO_END {
            assert!(o.get(m.name).is_some_and(|v| v > 0.0), "{} missing", m.name);
        }
    }

    #[test]
    fn corrupted_reply_is_counted_as_a_failure() {
        let o = run(&args(false), &small(true), &mut Tracer::off()).expect("valid run");
        assert_eq!(o.failed, 1, "{o:?}");
        assert!(!o.correct());
    }

    #[test]
    fn traced_run_reports_server_and_journal_layers() {
        let o = run(&args(true), &small(false), &mut Tracer::on()).expect("valid run");
        assert!(o.correct(), "{o:?}");
        for name in [
            "proto.parse_ns",
            "proto.format_ns",
            "fair.push_pop_ns",
            "hedge.record_ns",
            "snapshot.publish_point_us",
            "wal.accept_us_p50",
            "wal.done_us_p99",
            "server.ping_rtt_us",
            "engine.price_us",
            "engine.build_us",
            "quote.ok_frac.r2000",
        ] {
            assert!(o.get(name).is_some_and(|v| v > 0.0), "{name}");
        }
    }

    #[test]
    fn stats_counters_parse_as_the_protocol_formats_them() {
        let sent = StatsReply {
            rung: 2,
            accepted: 11,
            completed: 10,
            shed: 3,
            rejected: 1,
            hedges: 4,
            retries: 5,
            dedup_hits: 6,
            deadline_misses: 7,
            inflight: 1,
            dead_shards: 0,
            shards: 2,
            epoch: 9,
            draining: false,
            throttled: 8,
            tenants: 1,
        };
        let line = format_response(&Response::Stats(sent));
        assert!(line.starts_with("OK STATS rung="), "{line}");
        assert_eq!(parse_response(&line), Ok(Response::Stats(sent)));
    }

    #[test]
    fn replayed_ticks_match_the_server_snapshot() {
        let mut gen = Generator::new(4, MarketData::paper_workload(4));
        let book = CurveBook::new(4);
        for _ in 0..5 {
            let t = gen.tick();
            book.publish_point(t.curve, t.knot, t.value).expect("valid tick");
        }
        let mut market = MarketData::paper_workload(4);
        for t in &gen.ticks {
            apply_point(&mut market, t);
        }
        assert_eq!(book.current().market, market);
        assert_eq!(book.epoch(), 5);
    }
}

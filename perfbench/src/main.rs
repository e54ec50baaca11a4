//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --spec            # print BENCHMARK.json
//! ```
//!
//! Each run generates its inputs from `--seed`, measures for
//! `--seconds`, checks every answer against an oracle, prints
//! human-readable lines and, last, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` the per-layer metrics, taken from
//! spans recorded around calls into each layer (written to
//! `.perfbench/trace-<workload>-<seed>.tsv`).

mod batch;
mod quote;
mod report;
mod stats;
mod tick;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

/// Arguments shared by every workload.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Input seed.
    pub seed: u64,
    /// Measurement window, seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Directory for the span file and the journal probe.
    pub out_dir: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <batch-reprice|tick-stream|quote-serve> \
--seed <n> --seconds <s> --trace <0|1> | perfbench --spec";

fn parse_args(argv: &[String]) -> Result<(String, RunArgs), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|_| format!("bad seed `{value}`"))?)
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got `{value}`")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !report::WORKLOADS.iter().any(|(w, _)| *w == workload) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok((
        workload,
        RunArgs {
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
            out_dir: PathBuf::from(".perfbench"),
        },
    ))
}

fn run(workload: &str, args: &RunArgs) -> Result<String, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
    let mut tracer = if args.trace { Tracer::on() } else { Tracer::off() };
    let outcome = match workload {
        "batch-reprice" => batch::run(args, &batch::BatchConfig::full(), &mut tracer),
        "tick-stream" => tick::run(args, &tick::TickConfig::full(), &mut tracer),
        "quote-serve" => quote::run(args, &quote::QuoteConfig::full(), &mut tracer)?,
        other => return Err(format!("unknown workload `{other}`")),
    };
    println!("attempted = {}, failed = {}", outcome.attempted, outcome.failed);
    if args.trace {
        for (name, t) in tracer.layer_times() {
            println!(
                "self_time {name}: {} spans, total {:.6} s, self {:.6} s",
                t.count, t.total_s, t.self_s
            );
        }
        let path = args.out_dir.join(format!("trace-{workload}-{}.tsv", args.seed));
        tracer.write_tsv(&path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
        outcome.result_line(report::PER_LAYER)
    } else {
        for spec in report::END_TO_END {
            println!("{} = {} {}", spec.name, outcome.get(spec.name).unwrap_or(0.0), spec.unit);
        }
        outcome.result_line(report::END_TO_END)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--spec"] {
        print!("{}", report::spec_json());
        return ExitCode::SUCCESS;
    }
    let (workload, args) = match parse_args(&argv) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&workload, &args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let (w, a) = parse_args(&argv("--workload tick-stream --seed 9 --seconds 20 --trace 1"))
            .expect("valid");
        assert_eq!((w.as_str(), a.seed, a.seconds, a.trace), ("tick-stream", 9, 20.0, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload tick-stream --seed x --seconds 1 --trace 0",
            "--workload tick-stream --seed 1 --seconds 0 --trace 0",
            "--workload tick-stream --seed 1 --seconds 1 --trace 2",
            "--workload tick-stream --seed 1 --seconds 1",
            "--workload tick-stream --seed 1 --seconds 1 --trace",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}

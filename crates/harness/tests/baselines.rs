//! Every committed gate baseline parses through the shared gate types
//! and re-serialises byte for byte: the baselines, the specs and the
//! writers agree on one schema, with nothing dropped or reordered.

use cds_harness::rate_gate::{RateGate, RateSpec};
use cds_harness::verdict::{MatrixSpec, VerdictMatrix};
use cds_harness::{bench, chaos, server_chaos, storage_chaos, throughput, tick_storm};

fn committed(file: &str) -> String {
    let path = format!("{}/../../results/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

#[test]
fn matrix_baselines_round_trip_byte_for_byte() {
    let specs: [(&str, &'static MatrixSpec); 4] = [
        ("chaos_baseline.json", &chaos::VERDICTS),
        ("server_chaos_baseline.json", &server_chaos::VERDICTS),
        ("tenant_isolation_baseline.json", &server_chaos::ISOLATION_VERDICTS),
        ("storage_chaos_baseline.json", &storage_chaos::VERDICTS),
    ];
    for (file, spec) in specs {
        let text = committed(file);
        let matrix = VerdictMatrix::parse(spec, &text).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert!(!matrix.cases.is_empty(), "{file}");
        assert!(matrix.compare(&matrix).is_empty(), "{file}");
        assert_eq!(matrix.pretty(), text, "{file} does not reproduce");
    }
}

#[test]
fn rate_baselines_round_trip_byte_for_byte() {
    let specs: [(&str, &'static RateSpec); 3] = [
        ("bench_baseline.json", &bench::GATE),
        ("throughput_baseline.json", &throughput::GATE),
        ("tick_storm_baseline.json", &tick_storm::GATE),
    ];
    for (file, spec) in specs {
        let text = committed(file);
        let gate = RateGate::parse(spec, &text).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert!(!gate.rows().is_empty(), "{file}");
        assert!(gate.compare(&gate, spec.tolerance).is_empty(), "{file}");
        assert_eq!(gate.pretty(), text, "{file} does not reproduce");
    }
}

//! Exit paths of the `cds-server` binary's argument parser.

use std::process::Command;

#[test]
fn removed_service_micros_flag_is_an_unknown_flag() {
    // Admission has no service-time estimate to tune any more; the
    // flag must fail loudly rather than be silently ignored.
    let out = Command::new(env!("CARGO_BIN_EXE_cds-server"))
        .args(["--service-micros", "200"])
        .output()
        .expect("run cds-server");
    assert!(!out.status.success(), "exit status {:?}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag `--service-micros`"), "stderr: {stderr}");
    assert!(!stderr.contains("--service-micros <n>"), "usage must not list it: {stderr}");
}

//! Command-line behaviour of the exhibit binaries, run as processes.

use std::process::Command;

#[test]
fn all_rejects_csv_instead_of_ignoring_it() {
    let output = Command::new(env!("CARGO_BIN_EXE_all"))
        .args(["--quick", "--csv"])
        .env_remove("BPRED_CACHE_DIR")
        .output()
        .expect("the all binary runs");
    assert_eq!(output.status.code(), Some(1));
    assert!(
        output.stdout.is_empty(),
        "no exhibit output before the error"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(stderr.lines().count(), 1, "one-line message: {stderr:?}");
    assert!(stderr.contains("--csv"), "{stderr:?}");
}

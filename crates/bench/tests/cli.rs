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

/// Decodes the body of a JSON string literal; `None` on a raw control
/// character or an escape JSON does not define.
fn json_unescape(text: &str) -> Option<String> {
    let mut out = String::new();
    let mut chars = text.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                '/' => out.push('/'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'b' => out.push('\u{8}'),
                'f' => out.push('\u{c}'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
                }
                _ => return None,
            },
            '"' => return None,
            c if (c as u32) < 0x20 => return None,
            c => out.push(c),
        }
    }
    Some(out)
}

#[test]
fn bench_artifacts_escape_control_characters() {
    let flags = "-C\ttarget-cpu=native\n\u{1}\"quoted\"\\";
    let out = std::env::temp_dir().join(format!("bench-escape-{}.json", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_bench_replay"))
        .arg("--quick")
        .arg(&out)
        .env("RUSTFLAGS", flags)
        .env_remove("BPRED_CACHE_DIR")
        .output()
        .expect("bench_replay runs")
        .status;
    assert!(status.success());
    let json = std::fs::read_to_string(&out).expect("artifact written");
    let _ = std::fs::remove_file(&out);
    let value = json
        .lines()
        .find_map(|l| l.trim().strip_prefix("\"rustflags\": \""))
        .and_then(|l| l.strip_suffix("\","))
        .expect("one-line rustflags field");
    assert_eq!(json_unescape(value).as_deref(), Some(flags), "{value}");
}

/// A scratch file path unique to this test process.
fn scratch_file(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("bpred-cli-{}-{name}", std::process::id()))
}

fn simulate(trace: &std::path::Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_simulate"))
        .arg(trace)
        .args(["bimodal:a=10", "gshare:h=8,c=2", "pas:h=6,c=2"])
        .env_remove("BPRED_CACHE_DIR")
        .output()
        .expect("the simulate binary runs")
}

#[test]
fn simulate_refuses_a_declared_count_the_file_cannot_hold() {
    // A valid 16-byte header and no records: neither the declared
    // count nor its reservation may take the process down.
    for count in [u64::MAX, 1 << 40, 1 << 26, 1] {
        let path = scratch_file(&format!("count-{count}.bpt"));
        let mut bytes = b"BPRT\x01\x00\x00\x00".to_vec();
        bytes.extend_from_slice(&count.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let output = simulate(&path);
        let _ = std::fs::remove_file(&path);
        assert_eq!(output.status.code(), Some(1), "count {count}");
        assert!(output.stdout.is_empty(), "count {count}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(stderr.lines().count(), 1, "one-line message: {stderr:?}");
        assert!(
            stderr.contains(&format!("decoded 0 of {count} records")),
            "{stderr:?}"
        );
    }
}

#[test]
fn binary_and_text_trace_files_simulate_identically() {
    let mut tables = Vec::new();
    for ext in ["bpt", "txt"] {
        let path = scratch_file(&format!("espresso.{ext}"));
        let generated = Command::new(env!("CARGO_BIN_EXE_tracegen"))
            .arg("espresso")
            .arg(&path)
            .args(["5000", "7"])
            .output()
            .expect("the tracegen binary runs");
        assert!(generated.status.success(), "{generated:?}");
        let output = simulate(&path);
        let _ = std::fs::remove_file(&path);
        assert!(output.status.success(), "{output:?}");
        let stdout = String::from_utf8(output.stdout).unwrap();
        // The first line names the file; the rest is the table.
        let (title, table) = stdout.split_once('\n').unwrap();
        assert!(title.contains("records"), "{title:?}");
        assert!(table.contains("gshare:h=8,c=2"), "{table}");
        tables.push(table.to_owned());
    }
    assert_eq!(tables[0], tables[1]);
}

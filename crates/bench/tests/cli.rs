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

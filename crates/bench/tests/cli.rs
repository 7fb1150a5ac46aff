//! Command-line behaviour of the bench binaries, run as processes.

use std::ffi::OsStr;
use std::path::Path;
use std::process::{Command, Output};

use bpred_serve::ResultStore;
use bpred_trace::fnv::Fnv64;

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
    assert!(stderr.contains("export"), "points at export: {stderr:?}");
}

/// The whole quick reproduction, pinned: the FNV-1a 64 digest of what
/// `all --quick --seed 1996` prints. The benchmark's `paper-repro`
/// workload pins the same digest.
#[test]
fn all_quick_prints_the_pinned_reproduction() {
    let output = Command::new(env!("CARGO_BIN_EXE_all"))
        .args(["--quick", "--seed", "1996"])
        .env_remove("BPRED_CACHE_DIR")
        .output()
        .expect("the all binary runs");
    assert!(output.status.success(), "{output:?}");
    let digest = bpred_trace::fnv::fnv64(&output.stdout);
    assert_eq!(
        digest, 0x45ef_13f0_33da_98f6,
        "all --quick --seed 1996 printed digest {digest:#018x}"
    );
}

/// Runs the binary `exe` with `args`, with the result store at `cache`
/// or none.
fn run<S: AsRef<OsStr>>(exe: &str, args: &[S], cache: Option<&Path>) -> Output {
    let mut command = Command::new(exe);
    command.args(args);
    match cache {
        Some(dir) => command.env("BPRED_CACHE_DIR", dir),
        None => command.env_remove("BPRED_CACHE_DIR"),
    };
    command.output().expect("the binary runs")
}

/// Cells in the result store at `dir`.
fn stored_cells(dir: &Path) -> usize {
    ResultStore::open(dir).expect("the store opens").len()
}

/// Runs `export <out> --quick --seed 1996`, with the result store at
/// `cache` or none, and returns each file it reports as `(name,
/// contents)` in write order.
fn export_quick(out: &Path, cache: Option<&Path>) -> Vec<(String, Vec<u8>)> {
    let args = [
        out.as_os_str(),
        "--quick".as_ref(),
        "--seed".as_ref(),
        "1996".as_ref(),
    ];
    export_files(run(env!("CARGO_BIN_EXE_export"), &args, cache))
}

/// The files a successful `export` run reports, as `(name, contents)`
/// in write order.
fn export_files(output: Output) -> Vec<(String, Vec<u8>)> {
    assert!(output.status.success(), "{output:?}");
    String::from_utf8(output.stdout)
        .unwrap()
        .lines()
        .map(|line| {
            let path = Path::new(line.strip_prefix("wrote ").expect("one line per file"));
            let name = path.file_name().unwrap().to_str().unwrap().to_owned();
            (name, std::fs::read(path).expect("a reported file exists"))
        })
        .collect()
}

/// Every exhibit as CSV, pinned: the files `export --quick --seed
/// 1996` writes, by name in write order, and one FNV-1a 64 digest
/// over each name followed by its contents.
#[test]
fn export_quick_writes_the_pinned_csv_files() {
    let out = scratch_file("export");
    let files = export_quick(&out, None);
    let _ = std::fs::remove_dir_all(&out);
    let names: Vec<&str> = files.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(
        names,
        [
            "table1.csv",
            "table2.csv",
            "fig2_address_indexed.csv",
            "fig3_gag.csv",
            "fig4_gas_espresso.csv",
            "fig4_gas_mpeg_play.csv",
            "fig4_gas_real_gcc.csv",
            "fig6_gshare_espresso.csv",
            "fig6_gshare_mpeg_play.csv",
            "fig6_gshare_real_gcc.csv",
            "fig9_pas_espresso.csv",
            "fig9_pas_mpeg_play.csv",
            "fig9_pas_real_gcc.csv",
            "fig10_PAs_128_4_.csv",
            "fig10_PAs_1024_4_.csv",
            "fig10_PAs_2048_4_.csv",
            "fig7_gshare_minus_gas.csv",
            "fig8_path_minus_gas.csv",
            "table3.csv",
        ]
    );
    let digest = csv_digest(&files);
    assert_eq!(
        digest, 0x369f_b09e_a6c7_8f7d,
        "export --quick --seed 1996 wrote digest {digest:#018x}"
    );
}

/// One FNV-1a 64 digest over each file's name followed by its
/// contents.
fn csv_digest(files: &[(String, Vec<u8>)]) -> u64 {
    let mut hasher = Fnv64::new();
    for (name, contents) in files {
        hasher.write(name.as_bytes());
        hasher.write(contents);
    }
    hasher.finish()
}

/// The output directory may follow the flags: `export --quick DIR`
/// writes the pinned files too (the default seed is 1996).
#[test]
fn export_takes_its_directory_after_the_flags() {
    let out = scratch_file("export-last");
    let args = ["--quick".as_ref(), out.as_os_str()];
    let files = export_files(run(env!("CARGO_BIN_EXE_export"), &args, None));
    let _ = std::fs::remove_dir_all(&out);
    assert_eq!(files.len(), 19);
    assert_eq!(csv_digest(&files), 0x369f_b09e_a6c7_8f7d);
}

#[test]
fn export_rejects_csv_and_a_second_directory() {
    let out = scratch_file("export-refused");
    let other = scratch_file("export-refused-2");
    for args in [
        [out.as_os_str(), "--quick".as_ref(), "--csv".as_ref()],
        [out.as_os_str(), "--quick".as_ref(), other.as_os_str()],
    ] {
        let output = run(env!("CARGO_BIN_EXE_export"), &args, None);
        assert_eq!(output.status.code(), Some(1), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(stderr.lines().count(), 1, "one-line message: {stderr:?}");
        assert!(!out.exists() && !other.exists(), "{args:?} wrote files");
    }
}

#[test]
fn export_help_names_the_directory() {
    let output = run(env!("CARGO_BIN_EXE_export"), &["--help"], None);
    assert!(output.status.success(), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("[DIR]"), "{stderr:?}");
}

/// `export` reads and writes the result store `BPRED_CACHE_DIR`
/// names: the first run stores the plan's cells, and the second,
/// answered from them, writes the same bytes and stores nothing new.
#[test]
fn export_uses_the_result_store() {
    let cache = scratch_file("export-cache");
    let cold_out = scratch_file("export-cold");
    let cold = export_quick(&cold_out, Some(&cache));
    let stored = stored_cells(&cache);
    let warm_out = scratch_file("export-warm");
    let warm = export_quick(&warm_out, Some(&cache));
    let restored = stored_cells(&cache);
    for dir in [&cache, &cold_out, &warm_out] {
        let _ = std::fs::remove_dir_all(dir);
    }
    assert!(stored > 0, "the first run stored no cell");
    assert_eq!(restored, stored, "the second run computed cells");
    assert_eq!(cold.len(), 19);
    assert!(cold == warm, "the cached run wrote different files");
}

/// `all` reads and writes the result store `BPRED_CACHE_DIR` names,
/// as `export` does.
#[test]
fn all_uses_the_result_store() {
    let cache = scratch_file("all-cache");
    let all = || run(env!("CARGO_BIN_EXE_all"), &["--quick"], Some(&cache));
    let cold = all();
    let stored = stored_cells(&cache);
    let warm = all();
    let restored = stored_cells(&cache);
    let _ = std::fs::remove_dir_all(&cache);
    assert!(cold.status.success() && warm.status.success(), "{cold:?}");
    assert!(stored > 0, "the first run stored no cell");
    assert_eq!(restored, stored, "the second run computed cells");
    assert!(
        cold.stdout == warm.stdout,
        "the cached run printed different text"
    );
    assert_eq!(bpred_trace::fnv::fnv64(&cold.stdout), 0x45ef_13f0_33da_98f6);
}

/// `all` reopens a store of sealed segments: with a 4 KiB seal
/// threshold the first run seals dozens of them, and the second run
/// is answered from them, as scanned at open, with the same bytes.
/// The segments are the store's only files.
#[test]
fn all_reopens_a_store_of_sealed_segments() {
    let cache = scratch_file("all-sealed-cache");
    let all = || {
        Command::new(env!("CARGO_BIN_EXE_all"))
            .arg("--quick")
            .env("BPRED_CACHE_DIR", &cache)
            .env("BPRED_STORE_SEAL_BYTES", "4096")
            .output()
            .expect("the all binary runs")
    };
    let cold = all();
    let stored = stored_cells(&cache);
    let warm = all();
    let restored = stored_cells(&cache);
    let names: Vec<String> = std::fs::read_dir(cache.join("packs"))
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    let tmp = cache.join("tmp").exists();
    let _ = std::fs::remove_dir_all(&cache);
    assert!(cold.status.success() && warm.status.success(), "{cold:?}");
    assert!(stored > 0, "the first run stored no cell");
    assert_eq!(restored, stored, "the second run computed cells");
    for output in [&cold, &warm] {
        assert_eq!(
            bpred_trace::fnv::fnv64(&output.stdout),
            0x45ef_13f0_33da_98f6
        );
    }
    let sealed = names.iter().filter(|n| n.starts_with("seg-")).count();
    assert!(sealed > 1, "the first run sealed {sealed} segments");
    assert!(
        names
            .iter()
            .all(|n| n.ends_with(".pack") && (n.starts_with("seg-") || n.starts_with("active-"))),
        "{names:?}"
    );
    assert!(!tmp, "the store made a tmp/ directory");
}

/// `simulate` keys its cells by the trace file's contents in the
/// result store `BPRED_CACHE_DIR` names.
#[test]
fn simulate_uses_the_result_store() {
    let trace = scratch_file("cached.bpt");
    let generated = run(
        env!("CARGO_BIN_EXE_tracegen"),
        &[
            "espresso".as_ref(),
            trace.as_os_str(),
            "5000".as_ref(),
            "7".as_ref(),
        ],
        None,
    );
    assert!(generated.status.success(), "{generated:?}");
    let cache = scratch_file("simulate-cache");
    let simulate = || {
        let args = [
            trace.as_os_str(),
            "bimodal:a=10".as_ref(),
            "gshare:h=8,c=2".as_ref(),
        ];
        run(env!("CARGO_BIN_EXE_simulate"), &args, Some(&cache))
    };
    let cold = simulate();
    let stored = stored_cells(&cache);
    let warm = simulate();
    let restored = stored_cells(&cache);
    let _ = std::fs::remove_dir_all(&cache);
    let _ = std::fs::remove_file(&trace);
    assert!(cold.status.success() && warm.status.success(), "{cold:?}");
    assert_eq!(stored, 2, "one cell per configuration");
    assert_eq!(restored, stored, "the second run computed cells");
    assert!(
        cold.stdout == warm.stdout,
        "the cached run printed different text"
    );
}

/// Only the binaries with keyed sweeps open the result store: any other
/// binary leaves a `BPRED_CACHE_DIR` that does not exist uncreated.
#[test]
fn a_driver_without_keyed_sweeps_leaves_the_cache_dir_alone() {
    let cache = scratch_file("untouched-cache");
    let output = run(
        env!("CARGO_BIN_EXE_ablation_fsm"),
        &["--quick"],
        Some(&cache),
    );
    assert!(output.status.success(), "{output:?}");
    assert!(!cache.exists(), "ablation_fsm created {}", cache.display());
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

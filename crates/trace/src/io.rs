//! Trace file I/O.
//!
//! Filesystem wrappers over [`crate::binfmt`] and [`crate::textfmt`],
//! choosing the format by file extension: `.bpt` (and anything
//! unrecognised) is the binary format, `.txt`/`.trace` the text format.
//! Binary files stream through [`binfmt::TraceWriter`] and
//! [`binfmt::TraceReader`] over a buffered file, so no copy of the
//! whole file is held in memory.
//!
//! # Examples
//!
//! ```no_run
//! use bpred_trace::{io, BranchRecord, Outcome, Trace};
//!
//! let trace: Trace = (0..10)
//!     .map(|i| BranchRecord::conditional(0x40 + 4 * i, 0x20, Outcome::Taken))
//!     .collect();
//! io::save("run.bpt", &trace)?;
//! let back = io::load("run.bpt")?;
//! assert_eq!(back, trace);
//! # Ok::<(), std::io::Error>(())
//! ```

use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Error, ErrorKind};
use std::path::Path;

use crate::{binfmt, textfmt, Trace};

fn is_text_path(path: &Path) -> bool {
    matches!(
        path.extension().and_then(|e| e.to_str()),
        Some("txt") | Some("trace")
    )
}

/// Writes a trace to `path`, in the text format for `.txt`/`.trace`
/// extensions and the binary format otherwise.
///
/// # Errors
///
/// Returns any filesystem error from writing the file.
pub fn save<P: AsRef<Path>>(path: P, trace: &Trace) -> Result<(), Error> {
    let path = path.as_ref();
    if is_text_path(path) {
        fs::write(path, textfmt::emit(trace))
    } else {
        binfmt::write_trace(BufWriter::new(File::create(path)?), trace).map(drop)
    }
}

/// Reads a trace from `path`, choosing the decoder by extension.
///
/// # Errors
///
/// Returns filesystem errors as-is; decode/parse failures are
/// reported as [`ErrorKind::InvalidData`] with the underlying format
/// error as the source.
pub fn load<P: AsRef<Path>>(path: P) -> Result<Trace, Error> {
    let path = path.as_ref();
    if is_text_path(path) {
        let text = fs::read_to_string(path)?;
        textfmt::parse(&text).map_err(|e| Error::new(ErrorKind::InvalidData, e))
    } else {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        binfmt::read_trace(BufReader::new(file), len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BranchRecord, DecodeTraceError, Outcome};

    fn sample() -> Trace {
        (0..50u64)
            .map(|i| BranchRecord::conditional(0x400 + 4 * i, 0x100, Outcome::from(i % 3 == 0)))
            .collect()
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("bpred-io-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn binary_save_load_round_trip() {
        let path = temp_path("roundtrip.bpt");
        let trace = sample();
        save(&path, &trace).unwrap();
        assert_eq!(load(&path).unwrap(), trace);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn text_save_load_round_trip() {
        let path = temp_path("roundtrip.txt");
        let trace = sample();
        save(&path, &trace).unwrap();
        // Text files are human-readable.
        let contents = std::fs::read_to_string(&path).unwrap();
        assert!(contents.lines().next().unwrap().ends_with("C T"));
        assert_eq!(load(&path).unwrap(), trace);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_binary_is_invalid_data() {
        let path = temp_path("corrupt.bpt");
        std::fs::write(&path, b"not a trace").unwrap();
        let err = load(&path).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn binary_format_faults_carry_their_decode_error() {
        let path = temp_path("faults.bpt");
        let mut bytes = binfmt::encode(&sample());
        bytes.truncate(bytes.len() - 1);
        std::fs::write(&path, &bytes).unwrap();
        let err = load(&path).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        let fault = err.get_ref().unwrap().downcast_ref::<DecodeTraceError>();
        assert_eq!(fault, binfmt::decode(&bytes).err().as_ref());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_not_found() {
        let err = load(temp_path("does-not-exist.bpt")).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::NotFound);
    }

    #[test]
    fn extension_detection() {
        assert!(is_text_path(Path::new("a.txt")));
        assert!(is_text_path(Path::new("a.trace")));
        assert!(!is_text_path(Path::new("a.bpt")));
        assert!(!is_text_path(Path::new("a")));
    }
}

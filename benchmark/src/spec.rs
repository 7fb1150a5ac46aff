//! `BENCHMARK.json`: loading and validation.
//!
//! The file is the single declaration of what the benchmark runs and
//! reports: its workloads, its end-to-end metrics with their
//! regression bounds, and its per-layer metrics. The benchmark reads it
//! at start-up, refuses to run on a file outside the limits below, and
//! emits exactly the metrics it declares.

use std::collections::BTreeSet;

/// Largest accepted file, in bytes.
pub const MAX_FILE_BYTES: usize = 64 * 1024;
/// Largest regression bound, as a share of the parent's median.
pub const MAX_BOUND: f64 = 0.25;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (rates, capacity).
    Higher,
}

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit, e.g. `ms`, `1/s`.
    pub unit: String,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// One declared workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    /// Workload name, as passed to `--workload`.
    pub name: String,
    /// Why the workload exists.
    pub why: String,
}

/// A validated `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Program and arguments that run one workload.
    pub command: Vec<String>,
    /// Directories holding the benchmark.
    pub paths: Vec<String>,
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// Declared workloads, in file order.
    pub workloads: Vec<Workload>,
    /// End-to-end metrics, in file order.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics, in file order.
    pub per_layer: Vec<Metric>,
}

impl Spec {
    /// Reads and validates the file at `path`.
    pub fn load(path: &std::path::Path) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Spec::parse(&text)
    }

    /// Parses and validates the file's text.
    pub fn parse(text: &str) -> Result<Spec, String> {
        if text.len() > MAX_FILE_BYTES {
            return Err(format!("file exceeds {MAX_FILE_BYTES} bytes"));
        }
        let root = Json::parse(text)?;
        let top = exact_keys(
            &root,
            &[
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer",
            ],
            "top level",
        )?;

        let command = strings(top[0], "command", 1, 32)?;
        for arg in &command {
            if arg.chars().count() > 200 {
                return Err("command: argument longer than 200 characters".to_owned());
            }
            if arg.starts_with('/') || arg.split('/').any(|part| part == "..") {
                return Err(format!("command: {arg:?} leaves the repository"));
            }
        }
        let paths = strings(top[1], "paths", 1, 16)?;
        for path in &paths {
            let charset = path
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-/".contains(c));
            if path.is_empty()
                || path.len() > 200
                || !charset
                || path.starts_with('/')
                || path.split('/').any(|part| part == "..")
            {
                return Err(format!("paths: {path:?} is not a relative in-repo path"));
            }
        }
        let run_seconds = match top[2] {
            Json::Num(n) if n.fract() == 0.0 && (1.0..=60.0).contains(n) => *n as u64,
            _ => return Err("run_seconds must be a whole number from 1 to 60".to_owned()),
        };

        let mut names = BTreeSet::new();
        let Json::Arr(raw_workloads) = top[3] else {
            return Err("workloads must be a list".to_owned());
        };
        if !(2..=8).contains(&raw_workloads.len()) {
            return Err(format!(
                "workloads: {} declared, 2 to 8 allowed",
                raw_workloads.len()
            ));
        }
        let mut workloads = Vec::new();
        for w in raw_workloads {
            let f = exact_keys(w, &["name", "why"], "workload")?;
            let name = unique_name(f[0], &mut names)?;
            let why = string(f[1], "why")?;
            if why.is_empty() || why.chars().count() > 200 || why.contains('\n') {
                return Err(format!(
                    "workload {name}: why must be one line of 1-200 characters"
                ));
            }
            workloads.push(Workload { name, why });
        }

        let end_to_end = metrics(top[4], "end_to_end", 16, true, &mut names)?;
        let per_layer = metrics(top[5], "per_layer", 128, false, &mut names)?;

        let setup = end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .ok_or("end_to_end must declare setup_s")?;
        if setup.unit != "s" || setup.better != Better::Lower {
            return Err("setup_s must be in s with better = lower".to_owned());
        }
        let largest = end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        if setup.bound != Some(largest) {
            return Err("setup_s must carry the largest bound".to_owned());
        }

        Ok(Spec {
            command,
            paths,
            run_seconds,
            workloads,
            end_to_end,
            per_layer,
        })
    }

    /// The declared workload named `name`.
    pub fn workload(&self, name: &str) -> Option<&Workload> {
        self.workloads.iter().find(|w| w.name == name)
    }
}

fn metrics(
    value: &Json,
    what: &str,
    max: usize,
    bounded: bool,
    names: &mut BTreeSet<String>,
) -> Result<Vec<Metric>, String> {
    let Json::Arr(items) = value else {
        return Err(format!("{what} must be a list"));
    };
    if items.is_empty() || items.len() > max {
        return Err(format!(
            "{what}: {} declared, 1 to {max} allowed",
            items.len()
        ));
    }
    let keys: &[&str] = if bounded {
        &["name", "unit", "better", "bound"]
    } else {
        &["name", "unit", "better"]
    };
    let mut out = Vec::new();
    for item in items {
        let f = exact_keys(item, keys, what)?;
        let name = unique_name(f[0], names)?;
        let unit = string(f[1], "unit")?;
        let unit_ok = !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c));
        if !unit_ok {
            return Err(format!("{name}: unit {unit:?} is not allowed"));
        }
        let better = match string(f[2], "better")?.as_str() {
            "lower" => Better::Lower,
            "higher" => Better::Higher,
            other => {
                return Err(format!(
                    "{name}: better must be lower or higher, not {other:?}"
                ))
            }
        };
        let bound = if bounded {
            match f[3] {
                Json::Num(b) if *b > 0.0 && *b <= MAX_BOUND => Some(*b),
                _ => return Err(format!("{name}: bound must be in (0, {MAX_BOUND}]")),
            }
        } else {
            None
        };
        out.push(Metric {
            name,
            unit,
            better,
            bound,
        });
    }
    Ok(out)
}

/// Whether `name` is a legal workload or metric name.
pub fn name_ok(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unique_name(value: &Json, names: &mut BTreeSet<String>) -> Result<String, String> {
    let name = string(value, "name")?;
    if !name_ok(&name) {
        return Err(format!("name {name:?} breaks the [A-Za-z0-9_.-] rule"));
    }
    if !names.insert(name.clone()) {
        return Err(format!("name {name:?} is used twice"));
    }
    Ok(name)
}

fn string(value: &Json, what: &str) -> Result<String, String> {
    match value {
        Json::Str(s) => Ok(s.clone()),
        _ => Err(format!("{what} must be a string")),
    }
}

fn strings(value: &Json, what: &str, min: usize, max: usize) -> Result<Vec<String>, String> {
    let Json::Arr(items) = value else {
        return Err(format!("{what} must be a list"));
    };
    if items.len() < min || items.len() > max {
        return Err(format!("{what}: {min} to {max} entries allowed"));
    }
    items.iter().map(|v| string(v, what)).collect()
}

/// The values of `value`'s keys in `keys` order, requiring exactly
/// those keys.
fn exact_keys<'a>(value: &'a Json, keys: &[&str], what: &str) -> Result<Vec<&'a Json>, String> {
    let Json::Obj(fields) = value else {
        return Err(format!("{what} must be an object"));
    };
    let present: BTreeSet<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    let wanted: BTreeSet<&str> = keys.iter().copied().collect();
    if present != wanted || fields.len() != keys.len() {
        return Err(format!("{what} must have exactly the keys {keys:?}"));
    }
    Ok(keys
        .iter()
        .map(|k| &fields.iter().find(|(f, _)| f == k).expect("checked").1)
        .collect())
}

/// A parsed JSON value (objects keep their field order).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// A list.
    Arr(Vec<Json>),
    /// An object, fields in file order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = p.value(0)?;
        p.ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(value)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b" \t\r\n".contains(b))
        {
            self.pos += 1;
        }
    }

    fn err(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.pos)
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > 64 {
            return Err(self.err("nesting too deep"));
        }
        self.ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    if fields.iter().any(|(k, _)| *k == key) {
                        return Err(self.err(&format!("duplicate key {key:?}")));
                    }
                    self.ws();
                    self.expect(b':')?;
                    let value = self.value(depth + 1)?;
                    fields.push((key, value));
                    self.ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(self.err("expected , or }")),
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(self.err("expected , or ]")),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.word("true", Json::Bool(true)),
            Some(b'f') => self.word("false", Json::Bool(false)),
            Some(b'n') => self.word("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => {
                let start = self.pos;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|b| b"+-.eE0123456789".contains(b))
                {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
                text.parse()
                    .map(Json::Num)
                    .map_err(|_| self.err("bad number"))
            }
            _ => Err(self.err("expected a value")),
        }
    }

    fn word(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("bad literal"))
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", byte as char)))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.bytes[self.pos..];
            let Some(&b) = rest.first() else {
                return Err(self.err("unterminated string"));
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    let esc = *rest.get(1).ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 2;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                _ => {
                    // Copy one UTF-8 scalar.
                    let text = std::str::from_utf8(rest).map_err(|_| self.err("invalid UTF-8"))?;
                    let c = text.chars().next().expect("non-empty");
                    if (c as u32) < 0x20 {
                        return Err(self.err("control character in string"));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, bound: Option<f64>) -> String {
        match bound {
            Some(b) => {
                format!("{{\"name\":\"{name}\",\"unit\":\"s\",\"better\":\"lower\",\"bound\":{b}}}")
            }
            None => format!("{{\"name\":\"{name}\",\"unit\":\"s\",\"better\":\"lower\"}}"),
        }
    }

    fn file(workloads: usize, e2e: &[String], layers: &[String]) -> String {
        let ws: Vec<String> = (0..workloads)
            .map(|i| format!("{{\"name\":\"w{i}\",\"why\":\"because\"}}"))
            .collect();
        format!(
            "{{\"command\":[\"bash\",\"benchmark/run.sh\"],\"paths\":[\"benchmark\"],\"run_seconds\":10,\
             \"workloads\":[{}],\"end_to_end\":[{}],\"per_layer\":[{}]}}",
            ws.join(","),
            e2e.join(","),
            layers.join(",")
        )
    }

    fn ok_e2e() -> Vec<String> {
        vec![metric("setup_s", Some(0.25)), metric("p50_ms", Some(0.1))]
    }

    #[test]
    fn the_repository_benchmark_file_is_valid() {
        let spec = Spec::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
        assert_eq!(spec.workloads.len(), 3);
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
    }

    #[test]
    fn a_minimal_file_parses() {
        let spec = Spec::parse(&file(2, &ok_e2e(), &[metric("sim.pairs", None)])).unwrap();
        assert_eq!(spec.run_seconds, 10);
        assert_eq!(spec.per_layer[0].name, "sim.pairs");
        assert_eq!(spec.end_to_end[1].bound, Some(0.1));
    }

    #[test]
    fn names_outside_the_charset_are_refused() {
        for bad in ["p50 ms", "-lead", "a/b", "é", ""] {
            let e2e = vec![metric("setup_s", Some(0.25)), metric(bad, Some(0.1))];
            assert!(
                Spec::parse(&file(2, &e2e, &[metric("x", None)])).is_err(),
                "{bad:?}"
            );
        }
        assert!(name_ok("sim.replay.pas-perfect.pairs_per_s"));
        assert!(!name_ok(&"a".repeat(65)));
    }

    #[test]
    fn workload_count_must_be_two_to_eight() {
        let layers = [metric("x", None)];
        assert!(Spec::parse(&file(1, &ok_e2e(), &layers)).is_err());
        assert!(Spec::parse(&file(8, &ok_e2e(), &layers)).is_ok());
        assert!(Spec::parse(&file(9, &ok_e2e(), &layers)).is_err());
    }

    #[test]
    fn metric_counts_are_capped() {
        let mut e2e = ok_e2e();
        e2e.extend((0..15).map(|i| metric(&format!("m{i}"), Some(0.1))));
        assert_eq!(e2e.len(), 17);
        assert!(Spec::parse(&file(2, &e2e, &[metric("x", None)])).is_err());
        let layers: Vec<String> = (0..129).map(|i| metric(&format!("l{i}"), None)).collect();
        assert!(Spec::parse(&file(2, &ok_e2e(), &layers)).is_err());
        assert!(Spec::parse(&file(2, &ok_e2e(), &layers[..128])).is_ok());
    }

    #[test]
    fn every_end_to_end_metric_needs_a_unit_and_a_bound() {
        let missing_bound = vec![metric("setup_s", Some(0.25)), metric("p50_ms", None)];
        assert!(Spec::parse(&file(2, &missing_bound, &[metric("x", None)])).is_err());
        let too_loose = vec![metric("setup_s", Some(0.3))];
        assert!(Spec::parse(&file(2, &too_loose, &[metric("x", None)])).is_err());
        let no_unit = "{\"name\":\"p\",\"better\":\"lower\",\"bound\":0.1}".to_owned();
        let e2e = vec![metric("setup_s", Some(0.25)), no_unit];
        assert!(Spec::parse(&file(2, &e2e, &[metric("x", None)])).is_err());
        let no_setup = vec![metric("p50_ms", Some(0.1))];
        assert!(Spec::parse(&file(2, &no_setup, &[metric("x", None)])).is_err());
        let setup_not_largest = vec![metric("setup_s", Some(0.1)), metric("p", Some(0.2))];
        assert!(Spec::parse(&file(2, &setup_not_largest, &[metric("x", None)])).is_err());
    }

    #[test]
    fn extra_keys_and_duplicate_names_are_refused() {
        let with_extra =
            file(2, &ok_e2e(), &[metric("x", None)]).replacen('{', "{\"baseline\":1,", 1);
        assert!(Spec::parse(&with_extra).is_err());
        let dup = vec![metric("setup_s", Some(0.25)), metric("setup_s", Some(0.1))];
        assert!(Spec::parse(&file(2, &dup, &[metric("x", None)])).is_err());
    }

    #[test]
    fn json_parser_handles_the_grammar() {
        let v = Json::parse(r#"{"a":[1,-2.5e3,true,null,"x\"A"],"b":{}}"#).unwrap();
        let Json::Obj(fields) = v else {
            panic!("an object")
        };
        let Json::Arr(items) = &fields[0].1 else {
            panic!("a is a list")
        };
        assert_eq!(items[1], Json::Num(-2500.0));
        assert_eq!(items[4], Json::Str("x\"A".to_owned()));
        assert!(Json::parse("{\"a\":1,\"a\":2}").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} x").is_err());
    }
}

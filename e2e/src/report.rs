//! Result lines, run records and `e2e compare`.
//!
//! A *run record* is one JSON object on one line: the result line the
//! driver reads, plus `workload`, `seed` and `trace`. `--out FILE`
//! appends one per run; `compare` reads two such files.

use crate::metrics::{self, Better};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Outcome of one run of one workload.
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(metric name, value)`, in registry order.
    pub values: Vec<(&'static str, f64)>,
}

impl RunResult {
    fn metrics_json(&self) -> String {
        let mut out = String::from("{");
        for (i, &(name, value)) in self.values.iter().enumerate() {
            let unit = metrics::find(name).map_or("", |m| m.unit);
            let _ = write!(
                out,
                "{}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                if i > 0 { ", " } else { "" },
                json_number(value)
            );
        }
        out.push('}');
        out
    }

    /// The line the driver reads: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }

    /// The run record `--out` appends.
    pub fn record_line(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.workload,
            self.seed,
            u8::from(self.traced),
            self.failed == 0,
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }
}

/// A number as measured, with all its digits (never `NaN`/`inf`, which
/// JSON cannot carry).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

// ---------------------------------------------------------------------
// A minimal JSON reader (the benchmark has no dependencies to lean on).

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.at));
        }
        Ok(v)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.at) == Some(&byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.at))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.at) {
            Some(b'{') => {
                self.at += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.at) == Some(&b'}') {
                    self.at += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                    self.skip_ws();
                    match self.bytes.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b'}') => {
                            self.at += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.at)),
                    }
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.at) == Some(&b']') {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.bytes.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b']') => {
                            self.at += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.at)),
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => {
                let start = self.at;
                while self
                    .bytes
                    .get(self.at)
                    .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.at])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.at) {
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let escaped = self.bytes.get(self.at + 1).copied();
                    out.push(match escaped {
                        Some(b'n') => b'\n',
                        Some(b't') => b'\t',
                        Some(c @ (b'"' | b'\\' | b'/')) => c,
                        _ => return Err(format!("unsupported escape at byte {}", self.at)),
                    });
                    self.at += 2;
                }
                Some(&b) => {
                    out.push(b);
                    self.at += 1;
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }
}

// ---------------------------------------------------------------------
// compare

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q`-quantile by linear interpolation between order statistics.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles of Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method). 0 for fewer than two values.
pub fn iqr_share(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let m = median(&v);
    if m == 0.0 {
        0.0
    } else {
        (quartile(3) - quartile(1)) / m.abs()
    }
}

type Samples = BTreeMap<(String, String), Vec<f64>>;

/// Reads run records into `(workload, metric) → values`; returns also
/// the number of failed operations seen.
fn read_records(path: &str) -> Result<(Samples, u64), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut samples = Samples::new();
    let mut failed = 0u64;
    for (n, line) in text.lines().enumerate() {
        if !line.trim_start().starts_with('{') {
            continue;
        }
        let rec = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let workload = rec
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}:{}: no workload", n + 1))?;
        failed += rec.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        if let Some(Json::Obj(fields)) = rec.get("metrics") {
            for (name, m) in fields {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    samples
                        .entry((workload.to_string(), name.clone()))
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    Ok((samples, failed))
}

/// `e2e compare A B`: per metric × workload, both medians, the relative
/// difference (positive = B worse), the bound, and a verdict. Returns
/// whether anything got worse.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, a_failed) = read_records(a_path)?;
    let (b, b_failed) = read_records(b_path)?;
    println!(
        "{:<18} {:<42} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "B vs A", "bound", "spread"
    );
    let (mut worse, mut unresolved) = (0, 0);
    for ((workload, name), av) in &a {
        let Some(bv) = b.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        let Some(metric) = metrics::find(name) else {
            continue;
        };
        let (am, bm) = (median(av), median(bv));
        let sign = match metric.better {
            Better::Lower => 1.0,
            Better::Higher => -1.0,
        };
        let rel = if am != 0.0 {
            sign * (bm - am) / am.abs()
        } else if bm == am {
            0.0
        } else {
            sign * (bm - am).signum() * f64::INFINITY
        };
        let spread = iqr_share(av).max(iqr_share(bv));
        let verdict = match metric.bound {
            None => "-",
            Some(bound) if spread > bound => {
                unresolved += 1;
                "unresolved"
            }
            Some(bound) if rel > bound => {
                worse += 1;
                "worse"
            }
            Some(_) => "ok",
        };
        println!(
            "{workload:<18} {name:<42} {am:>14.6} {bm:>14.6} {:>+8.2}% {:>7} {:>7.2}%  {verdict}",
            rel * 100.0,
            metric
                .bound
                .map_or("-".to_string(), |b| format!("{:.1}%", b * 100.0)),
            spread * 100.0,
        );
    }
    if b_failed > a_failed {
        worse += 1;
        println!("failed operations: A {a_failed}, B {b_failed}  worse");
    }
    println!("{worse} worse, {unresolved} unresolved");
    Ok(worse > 0)
}

//! The golden determinism table: for the default seed, every cycle job's
//! best length, modeled milliseconds (bit for bit), iteration count,
//! resolved backend and kernel launches per family. Any inexact match
//! fails the run.

use std::collections::BTreeMap;

use aco_engine::{JobTimeline, SolveReport};

use crate::json::{self, obj, Value};

/// The seed the golden table is recorded at.
pub const GOLDEN_SEED: u64 = 1;

/// Where the table lives, next to the benchmark's manifest.
pub fn path() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/golden.json")
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    pub label: String,
    pub backend: String,
    pub best_len: u64,
    pub modeled_ms_bits: u64,
    pub iterations: u64,
    /// Launches per kernel family, sorted by family.
    pub kernels: Vec<(String, u64)>,
}

impl Entry {
    pub fn new(label: &str, rep: &SolveReport, timeline: Option<&JobTimeline>) -> Self {
        let mut kernels: Vec<(String, u64)> = timeline
            .map(|t| t.kernels.iter().map(|k| (k.family.clone(), k.invocations)).collect())
            .unwrap_or_default();
        kernels.sort();
        Entry {
            label: label.to_string(),
            backend: rep.backend.label(),
            best_len: rep.best_len,
            modeled_ms_bits: rep.modeled_ms.to_bits(),
            iterations: rep.iterations as u64,
            kernels,
        }
    }

    fn to_value(&self) -> Value {
        obj(vec![
            ("label", Value::Str(self.label.clone())),
            ("backend", Value::Str(self.backend.clone())),
            ("best_len", Value::Num(self.best_len as f64)),
            ("modeled_ms", Value::Num(f64::from_bits(self.modeled_ms_bits))),
            ("modeled_ms_bits", Value::Str(format!("{:#018x}", self.modeled_ms_bits))),
            ("iterations", Value::Num(self.iterations as f64)),
            (
                "kernels",
                Value::Obj(
                    self.kernels.iter().map(|(f, n)| (f.clone(), Value::Num(*n as f64))).collect(),
                ),
            ),
        ])
    }

    fn from_value(v: &Value) -> Result<Self, String> {
        let str_field = |k: &str| {
            v.get(k).and_then(Value::as_str).map(String::from).ok_or(format!("missing string {k}"))
        };
        let u64_field =
            |k: &str| v.get(k).and_then(Value::as_u64).ok_or(format!("missing integer {k}"));
        let bits = str_field("modeled_ms_bits")?;
        let modeled_ms_bits = bits
            .strip_prefix("0x")
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or(format!("bad modeled_ms_bits {bits:?}"))?;
        let mut kernels = Vec::new();
        for (family, n) in v.get("kernels").and_then(Value::as_object).ok_or("missing kernels")? {
            kernels.push((family.clone(), n.as_u64().ok_or(format!("bad count for {family}"))?));
        }
        kernels.sort();
        Ok(Entry {
            label: str_field("label")?,
            backend: str_field("backend")?,
            best_len: u64_field("best_len")?,
            modeled_ms_bits,
            iterations: u64_field("iterations")?,
            kernels,
        })
    }
}

/// Golden tables by workload name.
pub type Table = BTreeMap<String, Vec<Entry>>;

/// Parse a golden file's text.
pub fn parse(text: &str) -> Result<Table, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let seed = doc.get("seed").and_then(Value::as_str).ok_or("missing seed")?;
    if seed != GOLDEN_SEED.to_string() {
        return Err(format!("golden table is for seed {seed}, expected {GOLDEN_SEED}"));
    }
    let mut table = Table::new();
    for (name, entries) in
        doc.get("workloads").and_then(Value::as_object).ok_or("missing workloads")?
    {
        let entries = entries.as_array().ok_or(format!("{name}: not an array"))?;
        let parsed = entries.iter().map(Entry::from_value).collect::<Result<Vec<_>, _>>();
        table.insert(name.clone(), parsed.map_err(|e| format!("{name}: {e}"))?);
    }
    Ok(table)
}

/// Render a table as the golden file's text (one entry per line).
pub fn render(table: &Table) -> String {
    let mut out = format!("{{\"seed\":\"{GOLDEN_SEED}\",\"workloads\":{{");
    for (i, (name, entries)) in table.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n{}:[", Value::Str(name.clone()).to_json()));
        for (j, e) in entries.iter().enumerate() {
            out.push_str(if j > 0 { ",\n  " } else { "\n  " });
            out.push_str(&e.to_value().to_json());
        }
        out.push(']');
    }
    out.push_str("\n}}\n");
    out
}

/// Every way `actual` differs from `expected`.
pub fn compare(expected: &[Entry], actual: &[Entry]) -> Vec<String> {
    let mut out = Vec::new();
    if expected.len() != actual.len() {
        out.push(format!("golden has {} jobs, the run {}", expected.len(), actual.len()));
    }
    for (e, a) in expected.iter().zip(actual) {
        if e != a {
            out.push(format!(
                "{}: golden {} len {} ms {:?} it {} kernels {:?}; got {} len {} ms {:?} it {} kernels {:?}",
                e.label,
                e.backend,
                e.best_len,
                f64::from_bits(e.modeled_ms_bits),
                e.iterations,
                e.kernels,
                a.backend,
                a.best_len,
                f64::from_bits(a.modeled_ms_bits),
                a.iterations,
                a.kernels,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(label: &str) -> Entry {
        Entry {
            label: label.into(),
            backend: "gpu-m2050/NNList+Atomic".into(),
            best_len: 12345,
            modeled_ms_bits: 1.2345678901234567f64.to_bits(),
            iterations: 1,
            kernels: vec![("choice_info".into(), 1), ("tour_task".into(), 1)],
        }
    }

    #[test]
    fn round_trips_exactly() {
        let mut table = Table::new();
        table.insert("construct".into(), vec![entry("a"), entry("b")]);
        table.insert("cpu_batch".into(), vec![]);
        assert_eq!(parse(&render(&table)).unwrap(), table);
    }

    #[test]
    fn compare_reports_every_inexact_match() {
        let expected = vec![entry("a"), entry("b")];
        let mut actual = expected.clone();
        assert!(compare(&expected, &actual).is_empty());
        actual[1].modeled_ms_bits += 1;
        assert_eq!(compare(&expected, &actual).len(), 1);
        actual[0].kernels[0].1 = 2;
        assert_eq!(compare(&expected, &actual).len(), 2);
        assert!(!compare(&expected, &actual[..1]).is_empty());
    }

    #[test]
    fn refuses_malformed_tables() {
        for bad in [
            "",
            "{}",
            "{\"seed\":\"2\",\"workloads\":{}}",
            "{\"seed\":1,\"workloads\":{}}",
            "{\"seed\":\"1\",\"workloads\":[]}",
            "{\"seed\":\"1\",\"workloads\":{\"w\":{}}}",
            "{\"seed\":\"1\",\"workloads\":{\"w\":[{}]}}",
            "{\"seed\":\"1\",\"workloads\":{\"w\":[{\"label\":\"a\",\"backend\":\"b\",\"best_len\":-1,\"modeled_ms_bits\":\"0x1\",\"iterations\":1,\"kernels\":{}}]}}",
            "{\"seed\":\"1\",\"workloads\":{\"w\":[{\"label\":\"a\",\"backend\":\"b\",\"best_len\":1,\"modeled_ms_bits\":\"12\",\"iterations\":1,\"kernels\":{}}]}}",
            "{\"seed\":\"1\",\"workloads\":{\"w\":[{\"label\":\"a\",\"backend\":\"b\",\"best_len\":1,\"modeled_ms_bits\":\"0x1\",\"iterations\":1,\"kernels\":{\"k\":1.5}}]}}",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn hostile_golden_files_never_panic() {
        let mut table = Table::new();
        table.insert("construct".into(), vec![entry("a"), entry("b")]);
        let good = render(&table).into_bytes();
        let mut state = 0xD1B5_4A32_D192_ED03u64;
        for _ in 0..10_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let mut doc = good.clone();
            let at = (state as usize) % doc.len();
            match state % 3 {
                0 => doc.truncate(at),
                1 => doc[at] = b"0x\"{}[],:9-"[(state >> 32) as usize % 11],
                _ => {
                    doc.remove(at);
                }
            }
            if let Ok(text) = String::from_utf8(doc) {
                let _ = parse(&text);
            }
        }
    }
}

//! What a result was measured on: the host fingerprint and peak memory.

use crate::json::{obj, Value};

/// `nproc`, CPU model, rustc version and the source commit, so results
/// from different hosts or toolchains are never compared unknowingly.
pub fn fingerprint(seed: u64) -> Value {
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0);
    obj(vec![
        ("nproc", Value::Num(nproc as f64)),
        ("cpu_model", Value::Str(cpu_model())),
        ("rustc", Value::Str(rustc_version())),
        ("commit", Value::Str(commit())),
        ("seed", Value::Str(seed.to_string())),
    ])
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    std::process::Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()))
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The commit of the checkout the benchmark runs in, read from `.git`
/// in the working directory when there is one (the benchmark is run from
/// the repository root); `"unknown"` otherwise.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if reference.contains("..") || reference.starts_with('/') {
        return "unknown".into();
    }
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(String::from)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Restart this process's `VmHWM` from its current resident set, so the
/// next [`peak_rss_mb`] covers only what ran since. Returns whether the
/// kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

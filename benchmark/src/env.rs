//! What the run header says about the machine, and the process's peak
//! resident set.

use std::path::Path;
use std::process::Command;

use crate::json::Json;

/// Machine and toolchain facts printed with every report, so two reports
/// are only compared knowingly across different hosts.
pub fn host_facts() -> Vec<(&'static str, Json)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("nproc", Json::Num(nproc as f64)),
        ("cpu_model", opt(cpu_model())),
        ("rustc", opt(rustc_version())),
        ("git_sha", opt(git_sha(Path::new(".")))),
        ("os", Json::str(std::env::consts::OS)),
    ]
}

fn opt(s: Option<String>) -> Json {
    s.map_or(Json::Null, Json::Str)
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// `rustc --version` of the toolchain on the path (the one `cargo run`
/// just built this binary with). The child has exited when `output`
/// returns.
fn rustc_version() -> Option<String> {
    let out = Command::new("rustc").arg("--version").output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The checked-out commit, read from `.git` directly; `None` outside a
/// git checkout (the benchmark driver's copy is not one).
fn git_sha(root: &Path) -> Option<String> {
    let head = std::fs::read_to_string(root.join(".git/HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(r) => std::fs::read_to_string(root.join(".git").join(r))
            .ok()
            .map(|s| s.trim().to_string())
            .or_else(|| {
                let packed = std::fs::read_to_string(root.join(".git/packed-refs")).ok()?;
                packed
                    .lines()
                    .find_map(|l| l.strip_suffix(r).map(|sha| sha.trim().to_string()))
            }),
    }
}

/// Peak resident set of this process in MiB (`VmHWM`); `None` off Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

//! The environment a result was measured in, and the variables that
//! would silently change what is measured.

use std::path::Path;

/// Environment variables the simulator reads that change the measured
/// code path or size: shard count, horizon skipping, sweep thread count
/// and experiment scale.
pub const PINNED_VARS: [&str; 4] = ["NIM_SHARDS", "NIM_NO_SKIP", "NIM_JOBS", "NIM_SCALE"];

/// Names of the [`PINNED_VARS`] that are set.
pub fn pinned_vars_set() -> Vec<&'static str> {
    PINNED_VARS
        .into_iter()
        .filter(|v| std::env::var_os(v).is_some())
        .collect()
}

/// Machine, toolchain and source revision of one result.
#[derive(Clone, Debug)]
pub struct Machine {
    /// Available parallelism.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc -V` of the compiler that built the benchmark.
    pub rustc: String,
    /// Commit of the checkout, or `unknown` outside a git repository.
    pub commit: String,
}

impl Machine {
    /// Reads the machine record; `root` is the checkout's root.
    pub fn detect(root: &Path) -> Machine {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Machine {
            nproc: nproc(),
            cpu_model,
            rustc: env!("PERFBENCH_RUSTC_VERSION").to_string(),
            commit: git_commit(root).unwrap_or_else(|| "unknown".to_string()),
        }
    }

    /// The record as a JSON object, with the seed of the result.
    pub fn to_json(&self, seed: u64) -> String {
        format!(
            "{{\"nproc\":{},\"cpu_model\":{},\"rustc\":{},\"commit\":{},\"seed\":{seed}}}",
            self.nproc,
            json_str(&self.cpu_model),
            json_str(&self.rustc),
            json_str(&self.commit)
        )
    }
}

/// Available parallelism (1 if unknown).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The commit `HEAD` names, read from `.git` without running git.
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(_, name)| *name == reference)
        .map(|(id, _)| id.to_string())
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Host memory high-water mark of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

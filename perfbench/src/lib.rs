//! Host-time benchmark of the network-in-memory simulator.
//!
//! Four workloads drive the simulator through its public API only
//! (`SystemBuilder`, `System::begin`/`run_until`/`snapshot`,
//! `SystemBuilder::resume_from`, `experiments::run_cells` and
//! `nim_noc::Network`). An untraced run prints the end-to-end metrics; a
//! traced run prints the per-layer split. See `README.md` beside this
//! crate for what each workload is for and how to compare two commits.

pub mod check;
pub mod env;
pub mod host;
pub mod replay;
pub mod spans;
pub mod stats;
pub mod workloads;

use std::fmt::Write as _;

pub use workloads::{run, Metric, Outcome, Size, WORKLOADS};

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and every reported metric with its unit — the end-to-end
/// metrics untraced, the per-layer ones traced.
pub fn result_line(outcome: &Outcome, traced: bool) -> String {
    let chk = &outcome.checker;
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        chk.failed == 0,
        chk.attempted.max(1),
        chk.failed
    );
    let metrics = if traced {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Human-readable lines: every metric the run measured, the
/// fingerprints it checked, and any failures.
pub fn summary(workload: &str, outcome: &Outcome) -> String {
    let mut out = String::new();
    let chk = &outcome.checker;
    for m in outcome.end_to_end.iter().chain(&outcome.per_layer) {
        let _ = writeln!(
            out,
            "{workload} {:<30} {:>16.6} {:<12} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    let _ = writeln!(
        out,
        "{workload} checks: {} of {} operations failed (fail_ratio {})",
        chk.failed,
        chk.attempted,
        chk.fail_ratio()
    );
    for (label, fp) in &chk.fingerprints {
        let _ = writeln!(out, "{workload} fingerprint {label} {fp:#018x}");
    }
    for f in &chk.failures {
        let _ = writeln!(out, "{workload} FAILED {f}");
    }
    out
}

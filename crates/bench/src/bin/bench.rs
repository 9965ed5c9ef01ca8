//! Machine-readable parallel-sweep benchmark.
//!
//! Runs the Figure-13 grid (every benchmark × every scheme) twice — once
//! with one worker, once with `NIM_JOBS` (default: all cores, clamped to
//! the cores actually available) — and writes `BENCH_sweep.json` with
//! cycles simulated, wall seconds, cycles/sec, and the jobs=N speedup
//! over jobs=1, plus a `deterministic` flag asserting the two sweeps
//! produced identical reports. A second section times one *single* run
//! on the cycle-accurate NoC (`cycles_per_sec_single`) and the same cell
//! on the ideal contention-free fabric (`SystemBuilder::fabric`),
//! reporting `cycles_per_sec_ideal_fabric` — skipping per-flit
//! simulation must beat the cycle-accurate NoC on wall-clock
//! throughput, and CI gates on it.
//!
//! ```sh
//! NIM_SCALE=quick NIM_JOBS=4 cargo run --release -p nim-bench --bin bench
//! ```
//!
//! The output path defaults to `BENCH_sweep.json` in the current
//! directory; pass a path as the first argument to override it.

use std::error::Error;
use std::fmt::Write as _;
use std::time::Instant;

use nim_bench::scale_from_env;
use nim_core::experiments::{run_cells, ExperimentScale, SweepSpec};
use nim_core::parallel::{configured_jobs, set_jobs_override};
use nim_core::{FabricKind, RunReport, Scheme, SystemBuilder};
use nim_workload::BenchmarkProfile;

/// Pulls `"cycles_per_sec_1": <number>` out of a previously written
/// sweep JSON, so successive runs record before/after throughput
/// without needing a JSON dependency.
fn prev_cycles_per_sec(path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let key = "\"cycles_per_sec_1\":";
    let rest = text[text.find(key)? + key.len()..].trim_start();
    let end = rest.find([',', '\n', '}'])?;
    rest[..end].trim().parse().ok()
}

fn timed_sweep(
    jobs: usize,
    benchmarks: &[BenchmarkProfile],
    scale: ExperimentScale,
    specs: &[SweepSpec],
) -> Result<(Vec<RunReport>, f64), Box<dyn Error>> {
    set_jobs_override(Some(jobs));
    let start = Instant::now();
    let reports = run_cells(benchmarks, scale, specs);
    let wall = start.elapsed().as_secs_f64();
    set_jobs_override(None);
    Ok((reports?, wall))
}

/// Runs one 2-layer CmpDnuca3d cell on the given interconnect
/// substrate, returning the report and the wall time of `System::run`
/// alone (build and prewarm excluded).
fn timed_single_run(
    scale: ExperimentScale,
    profile: &BenchmarkProfile,
    fabric: FabricKind,
) -> Result<(RunReport, f64), Box<dyn Error>> {
    let mut sys = SystemBuilder::new(Scheme::CmpDnuca3d)
        .seed(42)
        .warmup_transactions(scale.warmup)
        .sampled_transactions(scale.sample)
        .fabric(fabric)
        .build()?;
    let start = Instant::now();
    let report = sys.run(profile)?;
    let wall = start.elapsed().as_secs_f64();
    Ok((report, wall))
}

fn main() -> Result<(), Box<dyn Error>> {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_sweep.json".to_string());
    let scale = scale_from_env(true);
    let scale_name = if scale == ExperimentScale::quick() {
        "quick"
    } else {
        "full"
    };
    let benchmarks = BenchmarkProfile::all();
    let mut specs = Vec::new();
    for bi in 0..benchmarks.len() {
        for &scheme in &Scheme::ALL {
            specs.push(SweepSpec::new(scheme, bi));
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Oversubscribing a small container (say NIM_JOBS=4 on one core)
    // only adds scheduling overhead — the sweep is CPU-bound, so more
    // workers than cores is strictly a loss. Clamp rather than obey.
    let jobs = configured_jobs().min(cores);
    eprintln!(
        "# bench: {} cells at scale {scale_name}, jobs=1 then jobs={jobs} ({cores} cores)",
        specs.len()
    );

    let prev_cps_1 = prev_cycles_per_sec(&out_path);
    let (baseline, wall_1) = timed_sweep(1, &benchmarks, scale, &specs)?;
    let (parallel, wall_n) = timed_sweep(jobs, &benchmarks, scale, &specs)?;

    // RunReport intentionally has no PartialEq; the Debug form covers
    // every field, so equal strings mean bit-identical sweeps.
    let deterministic = format!("{baseline:?}") == format!("{parallel:?}");
    let cycles: u64 = parallel.iter().map(|r| r.cycles).sum();
    let cps_1 = cycles as f64 / wall_1.max(1e-9);
    let cps_n = cycles as f64 / wall_n.max(1e-9);
    let speedup = wall_1 / wall_n.max(1e-9);

    // One single run on the flit-level NoC, then the same cell on the
    // ideal contention-free fabric, with every packet's latency computed
    // analytically instead of simulated flit by flit.
    let single_profile = BenchmarkProfile::art();
    eprintln!("# bench: single run");
    let (single_report, wall_single) = timed_single_run(scale, &single_profile, FabricKind::Sim)?;
    let seq_debug = format!("{single_report:?}");
    let cps_single = single_report.cycles as f64 / wall_single.max(1e-9);
    eprintln!("# bench: single-run ideal fabric");
    let (ideal_report, wall_ideal) = timed_single_run(scale, &single_profile, FabricKind::Ideal)?;
    let cps_ideal = ideal_report.cycles as f64 / wall_ideal.max(1e-9);
    let ideal_fabric_speedup = cps_ideal / cps_single.max(1e-9);

    // Snapshot/resume: pause the same cell at its warmup boundary, time
    // writing the image and restoring a live system from it, and check
    // the resumed run still reproduces the sequential report above.
    eprintln!("# bench: snapshot write + resume");
    let mut sys = SystemBuilder::new(Scheme::CmpDnuca3d)
        .seed(42)
        .warmup_transactions(scale.warmup)
        .sampled_transactions(scale.sample)
        .build()?;
    let mut gen = sys.begin(&single_profile);
    if sys.run_until(&mut gen, scale.warmup)?.is_some() {
        return Err("warmup stop unexpectedly finished the run".into());
    }
    let start = Instant::now();
    let image = sys.snapshot(&gen)?;
    let snapshot_write_secs = start.elapsed().as_secs_f64();
    let snapshot_bytes = image.len();
    let start = Instant::now();
    let mut resumed = SystemBuilder::resume_from(&image, None)?;
    let resume_secs = start.elapsed().as_secs_f64();
    let resumed_deterministic = format!("{:?}", resumed.finish()?) == seq_debug;

    // Warmup forking: a sweep of N identical cells simulates warmup once
    // and forks, vs N cold starts. Timed at jobs=1 so the speedup
    // isolates the shared warmup, not thread-level parallelism.
    eprintln!("# bench: warmup-forked sweep, 4 duplicate cells");
    let fork_bench = [single_profile];
    let fork_specs = [SweepSpec::new(Scheme::CmpDnuca3d, 0); 4];
    set_jobs_override(Some(1));
    let start = Instant::now();
    let forked = run_cells(&fork_bench, scale, &fork_specs)?;
    let wall_forked = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let cold = run_cells(&fork_bench, scale, &fork_specs[..1])?;
    let wall_cold = start.elapsed().as_secs_f64();
    set_jobs_override(None);
    let warmup_fork_speedup = (fork_specs.len() as f64 * wall_cold) / wall_forked.max(1e-9);
    let fork_deterministic = forked
        .iter()
        .all(|r| format!("{r:?}") == format!("{:?}", cold[0]));

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"scale\": \"{scale_name}\",");
    let _ = writeln!(json, "  \"warmup_transactions\": {},", scale.warmup);
    let _ = writeln!(json, "  \"sampled_transactions\": {},", scale.sample);
    let _ = writeln!(json, "  \"cores\": {cores},");
    let _ = writeln!(json, "  \"jobs\": {jobs},");
    let _ = writeln!(json, "  \"cells\": {},", specs.len());
    let _ = writeln!(json, "  \"cycles_simulated\": {cycles},");
    let _ = writeln!(json, "  \"wall_secs_1\": {wall_1:.6},");
    let _ = writeln!(json, "  \"wall_secs_n\": {wall_n:.6},");
    let _ = writeln!(json, "  \"cycles_per_sec_1\": {cps_1:.1},");
    let _ = writeln!(json, "  \"cycles_per_sec_n\": {cps_n:.1},");
    let _ = writeln!(json, "  \"speedup\": {speedup:.3},");
    let _ = writeln!(json, "  \"cycles_per_sec_single\": {cps_single:.1},");
    let _ = writeln!(json, "  \"cycles_per_sec_ideal_fabric\": {cps_ideal:.1},");
    let _ = writeln!(
        json,
        "  \"ideal_fabric_speedup\": {ideal_fabric_speedup:.3},"
    );
    let _ = writeln!(json, "  \"snapshot_bytes\": {snapshot_bytes},");
    let _ = writeln!(json, "  \"snapshot_write_secs\": {snapshot_write_secs:.6},");
    let _ = writeln!(json, "  \"resume_secs\": {resume_secs:.6},");
    let _ = writeln!(json, "  \"warmup_fork_speedup\": {warmup_fork_speedup:.3},");
    let _ = writeln!(json, "  \"fork_deterministic\": {fork_deterministic},");
    // Before/after throughput relative to whatever sweep last wrote this
    // file (absent on a first run).
    if let Some(prev) = prev_cps_1 {
        let _ = writeln!(json, "  \"prev_cycles_per_sec_1\": {prev:.1},");
        let _ = writeln!(
            json,
            "  \"speedup_vs_prev\": {:.3},",
            cps_1 / prev.max(1e-9)
        );
    }
    let _ = writeln!(json, "  \"deterministic\": {deterministic}");
    json.push_str("}\n");

    std::fs::write(&out_path, &json)?;
    print!("{json}");
    eprintln!("# wrote {out_path}");
    if !deterministic {
        return Err("parallel sweep diverged from the sequential sweep".into());
    }
    if !resumed_deterministic {
        return Err("the resumed run diverged from the sequential run".into());
    }
    if !fork_deterministic {
        return Err("a warmup-forked cell diverged from its cold start".into());
    }
    Ok(())
}

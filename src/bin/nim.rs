//! `nim` — command-line front end for the network-in-memory simulator.
//!
//! ```sh
//! nim run --scheme dnuca3d --bench swim --sample 20000
//! nim compare --bench mgrid
//! nim thermal
//! nim list
//! ```
//!
//! Argument parsing is deliberately dependency-free (the workspace only
//! uses the pre-approved crates); see `nim help` for the full grammar.

use std::error::Error;
use std::fs::File;
use std::io::BufWriter;
use std::process::ExitCode;

use network_in_memory::core::experiments::{
    latency_breakdown, scale_sweep, table3_thermal, ExperimentScale, ScaleSpec,
};
use network_in_memory::core::{FabricKind, Phase, Scheme, SystemBuilder};
use network_in_memory::obs::{CategoryMask, Obs, ObsConfig};
use network_in_memory::topology::TopoSpec;
use network_in_memory::types::{PillarPlacement, SystemConfig};
use network_in_memory::workload::BenchmarkProfile;

const HELP: &str = "\
nim — 3D chip-multiprocessor network-in-memory simulator (ISCA'06)

USAGE:
    nim <COMMAND> [OPTIONS]

COMMANDS:
    run        simulate one scheme on one benchmark
    compare    simulate all four schemes on one benchmark
    breakdown  per-phase latency decomposition, all four schemes
    scale      sweep topologies × fabrics; print cycles/sec and
               per-cell fingerprints
    thermal    print the Table 3 thermal profiles
    list       list benchmarks and schemes
    help       show this message

OPTIONS (run / compare):
    --scheme <dnuca|dnuca2d|snuca3d|dnuca3d>   scheme (run only; default dnuca3d)
    --bench <name>                             benchmark profile (default swim)
    --topology <spec>                          'default', '4-layer', '8-layer',
                                               or a comma list of layers=N,
                                               pillars=N, placement=
                                               {spread|corners|diagonal};
                                               explicit flags below override it
    --layers <n>                               device layers (default 2)
    --pillars <n>                              vertical pillars (default 8)
    --l2-scale <1|2|4>                         L2 capacity factor (default 1)
    --fabric <sim|latency-table|ideal>         interconnect substrate: the
                                               cycle-accurate NoC, the analytic
                                               latency-table model, or the
                                               contention-free ideal (default sim)
    --warmup <n>                               warm-up transactions (default 2000)
    --sample <n>                               sampled transactions (default 20000)
    --seed <n>                                 workload seed (default 42)

OPTIONS (scale; comma lists sweep the grid):
    --bench <name>                             benchmark profile (default swim)
    --layers <a,b,..>                          layer counts (default 2,4,8)
    --cpus <a,b,..>                            CPU counts (default 8)
    --l2-scale <a,b,..>                        L2 capacity factors (default 1)
    --placements <a,b,..>                      pillar placements (default spread)
    --fabric <a,b,..>                          substrates (default sim)
    --warmup / --sample / --seed               as above

SNAPSHOT / RESUME (run only):
    --snapshot-out <path>     write a resumable checkpoint image; alone,
                              snapshots once at the warmup boundary;
                              with --snapshot-every, overwrites the image
                              every N transactions (rolling checkpoint)
    --snapshot-every <txns>   checkpoint cadence in completed
                              transactions (requires --snapshot-out)
    --resume <path>           reconstruct a checkpointed run and carry it
                              to completion; scheme/benchmark/topology
                              flags are ignored (the image records them)

OBSERVABILITY (run only; all off by default):
    --trace-out <path>        write a Chrome trace_event JSON file
                              (load it at https://ui.perfetto.dev)
    --trace-filter <cats>     categories to trace: 'all', 'none', or a
                              comma list of packet,hop,pillar,search,
                              migration,coherence,bank,memory,meta;
                              prefix '-' subtracts from all (default:
                              all except the per-flit 'hop' firehose)
    --metrics-out <path>      write final metrics + epoch samples JSON
    --sample-every <cycles>   snapshot metrics every N cycles (0 = off)
    --trace-txn-sample <n>    emit begin/end spans with the per-phase
                              latency breakdown for every n-th
                              transaction (0 = off; implies tracing)
";

fn parse_scheme(s: &str) -> Result<Scheme, String> {
    match s.to_ascii_lowercase().as_str() {
        "dnuca" | "cmp-dnuca" => Ok(Scheme::CmpDnuca),
        "dnuca2d" | "cmp-dnuca-2d" | "2d" => Ok(Scheme::CmpDnuca2d),
        "snuca3d" | "cmp-snuca-3d" | "snuca" => Ok(Scheme::CmpSnuca3d),
        "dnuca3d" | "cmp-dnuca-3d" | "3d" => Ok(Scheme::CmpDnuca3d),
        other => Err(format!("unknown scheme '{other}'")),
    }
}

#[derive(Debug)]
struct Options {
    scheme: Scheme,
    bench: BenchmarkProfile,
    /// Parsed `--topology` overrides, applied before the explicit flags.
    topology: TopoSpec,
    /// `None` keeps the topology's (or the default) layer count.
    layers: Option<u8>,
    /// `None` keeps the topology's (or the default) pillar count.
    pillars: Option<u16>,
    l2_scale: u32,
    fabric: FabricKind,
    warmup: u64,
    sample: u64,
    seed: u64,
    trace_out: Option<String>,
    trace_filter: CategoryMask,
    metrics_out: Option<String>,
    sample_every: u64,
    txn_sample: u64,
    snapshot_out: Option<String>,
    /// Checkpoint cadence in completed transactions (0 = once, at the
    /// warmup boundary).
    snapshot_every: u64,
    resume: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            scheme: Scheme::CmpDnuca3d,
            bench: BenchmarkProfile::swim(),
            topology: TopoSpec::default(),
            layers: None,
            pillars: None,
            l2_scale: 1,
            fabric: FabricKind::Sim,
            warmup: 2_000,
            sample: 20_000,
            seed: 42,
            trace_out: None,
            trace_filter: CategoryMask::default_trace(),
            metrics_out: None,
            sample_every: 0,
            txn_sample: 0,
            snapshot_out: None,
            snapshot_every: 0,
            resume: None,
        }
    }
}

impl Options {
    /// The configuration the selected topology flags describe: the
    /// `--topology` preset, then the explicit `--layers`/`--pillars`.
    fn effective_config(&self) -> SystemConfig {
        let mut cfg = SystemConfig::default();
        self.topology.apply(&mut cfg);
        if let Some(l) = self.layers {
            cfg.network.layers = l;
        }
        if let Some(p) = self.pillars {
            cfg.network.pillars = p;
        }
        cfg
    }
}

impl Options {
    /// Builds the observability handle the flags ask for — a disabled
    /// handle (one branch per instrumentation point) when no flag is set.
    fn obs(&self) -> Obs {
        if self.trace_out.is_none()
            && self.metrics_out.is_none()
            && self.sample_every == 0
            && self.txn_sample == 0
        {
            return Obs::disabled();
        }
        Obs::new(ObsConfig {
            // Transaction spans live in the trace ring, so sampling them
            // implies tracing even without --trace-out (the run summary
            // still reports the event count).
            trace: self.trace_out.is_some() || self.txn_sample > 0,
            mask: self.trace_filter,
            sample_every: self.sample_every,
            txn_sample: self.txn_sample,
            ..ObsConfig::default()
        })
    }
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--scheme" => opts.scheme = parse_scheme(&value()?)?,
            "--bench" => {
                let name = value()?;
                opts.bench = BenchmarkProfile::by_name(&name)
                    .ok_or_else(|| format!("unknown benchmark '{name}'"))?;
            }
            "--topology" => {
                opts.topology =
                    TopoSpec::parse(&value()?).map_err(|e| format!("--topology: {e}"))?
            }
            "--layers" => {
                opts.layers = Some(value()?.parse().map_err(|e| format!("--layers: {e}"))?)
            }
            "--pillars" => {
                opts.pillars = Some(value()?.parse().map_err(|e| format!("--pillars: {e}"))?)
            }
            "--l2-scale" => {
                opts.l2_scale = value()?.parse().map_err(|e| format!("--l2-scale: {e}"))?
            }
            "--fabric" => {
                opts.fabric = FabricKind::parse(&value()?)
                    .map_err(|v| format!("--fabric: unknown fabric '{v}'"))?
            }
            "--warmup" => opts.warmup = value()?.parse().map_err(|e| format!("--warmup: {e}"))?,
            "--sample" => opts.sample = value()?.parse().map_err(|e| format!("--sample: {e}"))?,
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--trace-out" => opts.trace_out = Some(value()?),
            "--trace-filter" => {
                opts.trace_filter =
                    CategoryMask::parse(&value()?).map_err(|e| format!("--trace-filter: {e}"))?
            }
            "--metrics-out" => opts.metrics_out = Some(value()?),
            "--sample-every" => {
                opts.sample_every = value()?
                    .parse()
                    .map_err(|e| format!("--sample-every: {e}"))?
            }
            "--trace-txn-sample" => {
                opts.txn_sample = value()?
                    .parse()
                    .map_err(|e| format!("--trace-txn-sample: {e}"))?
            }
            "--snapshot-out" => opts.snapshot_out = Some(value()?),
            "--snapshot-every" => {
                opts.snapshot_every = value()?
                    .parse()
                    .map_err(|e| format!("--snapshot-every: {e}"))?
            }
            "--resume" => opts.resume = Some(value()?),
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    if opts.snapshot_every > 0 && opts.snapshot_out.is_none() {
        return Err("--snapshot-every needs --snapshot-out".into());
    }
    Ok(opts)
}

/// Runs a freshly built system to completion, pausing at the requested
/// checkpoint stops (`--snapshot-out`/`--snapshot-every`) to overwrite
/// the image at `path` — each pause lands on an epoch boundary, so every
/// image is resumable and the run itself is bit-identical to one that
/// never paused.
fn run_checkpointed(
    system: &mut network_in_memory::core::System,
    bench: &BenchmarkProfile,
    path: &str,
    every: u64,
    warmup: u64,
) -> Result<network_in_memory::core::RunReport, Box<dyn Error>> {
    let mut gen = system.begin(bench);
    // With no cadence, checkpoint once at the warmup boundary — the
    // warmed image sweeps fork from.
    let mut next = if every > 0 { every } else { warmup };
    loop {
        if next == 0 {
            return Ok(system
                .run_until(&mut gen, u64::MAX)?
                .expect("unbounded run finishes"));
        }
        match system.run_until(&mut gen, next)? {
            Some(report) => return Ok(report),
            None => {
                system.snapshot_to(path, &gen)?;
                eprintln!("snapshot after {next} transactions -> {path}");
                next = if every > 0 { next + every } else { 0 };
            }
        }
    }
}

/// Reconstructs a checkpointed run from `--resume` and carries it to
/// completion; the image records the scheme, benchmark, topology, and
/// observability, so no other flag applies.
fn run_resumed(path: &str) -> Result<(), Box<dyn Error>> {
    let mut resumed = SystemBuilder::resume(path)?;
    let scheme = resumed.system().scheme();
    eprintln!(
        "resumed {} ({}) at cycle {}",
        resumed.benchmark(),
        scheme.label(),
        resumed.system().network().now().0
    );
    let report = resumed.finish()?;
    print_report(scheme, &report);
    Ok(())
}

fn print_report(scheme: Scheme, report: &network_in_memory::core::RunReport) {
    println!(
        "{:<14} avg L2 hit {:>7.2} cy | IPC {:>6.4} | migrations {:>7} | miss {:>6.4} | L2 energy {:>8.4} mJ | fp 0x{:016x}",
        scheme.label(),
        report.avg_l2_hit_latency(),
        report.ipc(),
        report.counters.migrations,
        report.l2_miss_rate(),
        report.energy().total_j() * 1e3,
        report.fingerprint(),
    );
}

fn run_one(opts: &Options, scheme: Scheme, obs: Obs) -> Result<(), Box<dyn Error>> {
    let mut system = SystemBuilder::new(scheme)
        .config(opts.effective_config())
        .l2_scale(opts.l2_scale)
        .fabric(opts.fabric)
        .warmup_transactions(opts.warmup)
        .sampled_transactions(opts.sample)
        .seed(opts.seed)
        .observability(obs.clone())
        .build()?;
    let report = match &opts.snapshot_out {
        Some(path) => run_checkpointed(
            &mut system,
            &opts.bench,
            path,
            opts.snapshot_every,
            opts.warmup,
        )?,
        None => system.run(&opts.bench)?,
    };
    print_report(scheme, &report);
    if let Some(path) = &opts.trace_out {
        let mut w = BufWriter::new(File::create(path).map_err(|e| format!("{path}: {e}"))?);
        obs.export_trace(&mut w)?;
        eprintln!(
            "trace: {} events ({} dropped) -> {path}",
            obs.event_count(),
            obs.dropped_events()
        );
    }
    if let Some(path) = &opts.metrics_out {
        let mut w = BufWriter::new(File::create(path).map_err(|e| format!("{path}: {e}"))?);
        obs.export_metrics(&mut w)?;
        eprintln!("metrics -> {path}");
    }
    if obs.is_enabled() && obs.sample_every() > 0 {
        eprintln!("simulated {:.0} cycles/sec", obs.cycles_per_sec());
    }
    Ok(())
}

#[derive(Debug)]
struct ScaleOptions {
    bench: BenchmarkProfile,
    layers: Vec<u8>,
    cpus: Vec<u32>,
    l2_scales: Vec<u32>,
    placements: Vec<PillarPlacement>,
    fabrics: Vec<FabricKind>,
    warmup: u64,
    sample: u64,
    seed: u64,
}

impl Default for ScaleOptions {
    fn default() -> Self {
        Self {
            bench: BenchmarkProfile::swim(),
            layers: vec![2, 4, 8],
            cpus: vec![8],
            l2_scales: vec![1],
            placements: vec![PillarPlacement::Spread],
            fabrics: vec![FabricKind::Sim],
            warmup: 2_000,
            sample: 20_000,
            seed: 42,
        }
    }
}

/// Parses a comma list through `parse` with the flag name in errors.
fn comma_list<T>(
    flag: &str,
    value: &str,
    parse: impl Fn(&str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let items: Result<Vec<T>, String> = value.split(',').map(|s| parse(s.trim())).collect();
    let items = items.map_err(|e| format!("{flag}: {e}"))?;
    if items.is_empty() {
        return Err(format!("{flag} needs at least one value"));
    }
    Ok(items)
}

fn parse_scale_options(args: &[String]) -> Result<ScaleOptions, String> {
    let mut opts = ScaleOptions::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--bench" => {
                let name = value()?;
                opts.bench = BenchmarkProfile::by_name(&name)
                    .ok_or_else(|| format!("unknown benchmark '{name}'"))?;
            }
            "--layers" => {
                opts.layers = comma_list("--layers", &value()?, |s| {
                    s.parse().map_err(|e| format!("{e}"))
                })?
            }
            "--cpus" => {
                opts.cpus = comma_list("--cpus", &value()?, |s| {
                    s.parse().map_err(|e| format!("{e}"))
                })?
            }
            "--l2-scale" => {
                opts.l2_scales = comma_list("--l2-scale", &value()?, |s| {
                    s.parse().map_err(|e| format!("{e}"))
                })?
            }
            "--placements" => {
                opts.placements = comma_list("--placements", &value()?, |s| {
                    PillarPlacement::parse(s).map_err(|v| format!("unknown placement '{v}'"))
                })?
            }
            "--fabric" => {
                opts.fabrics = comma_list("--fabric", &value()?, |s| {
                    FabricKind::parse(s).map_err(|v| format!("unknown fabric '{v}'"))
                })?
            }
            "--warmup" => opts.warmup = value()?.parse().map_err(|e| format!("--warmup: {e}"))?,
            "--sample" => opts.sample = value()?.parse().map_err(|e| format!("--sample: {e}"))?,
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(opts)
}

/// The spec grid of a `scale` invocation, in deterministic row order.
fn scale_grid(opts: &ScaleOptions) -> Vec<ScaleSpec> {
    let mut specs = Vec::new();
    for &layers in &opts.layers {
        for &cpus in &opts.cpus {
            for &l2_scale in &opts.l2_scales {
                for &placement in &opts.placements {
                    for &fabric in &opts.fabrics {
                        specs.push(ScaleSpec {
                            layers,
                            cpus,
                            l2_scale,
                            placement,
                            fabric,
                        });
                    }
                }
            }
        }
    }
    specs
}

fn cmd_scale(opts: &ScaleOptions) -> Result<(), Box<dyn Error>> {
    let scale = ExperimentScale {
        seed: opts.seed,
        warmup: opts.warmup,
        sample: opts.sample,
    };
    let specs = scale_grid(opts);
    println!("benchmark: {}", opts.bench.name);
    let results = scale_sweep(Scheme::CmpDnuca3d, &opts.bench, &specs, scale)?;
    println!(
        "{:<44} {:>12} {:>8} {:>12} {:>8} {:>8} {:>18}",
        "cell", "cycles", "wall s", "cycles/sec", "hits", "misses", "fingerprint"
    );
    for (spec, result) in specs.iter().zip(results) {
        match result {
            Some(cell) => {
                println!(
                    "{:<44} {:>12} {:>8.2} {:>12.0} {:>8} {:>8} 0x{:016x}",
                    cell.spec.label(),
                    cell.report.cycles,
                    cell.wall_secs,
                    cell.cycles_per_sec,
                    cell.report.counters.l2_hits,
                    cell.report.counters.l2_misses,
                    cell.fingerprint
                );
            }
            None => println!("{:<44} skipped (unbuildable cell)", spec.label()),
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprint!("{HELP}");
        return ExitCode::FAILURE;
    };
    let result: Result<(), Box<dyn Error>> = match command.as_str() {
        "help" | "--help" | "-h" => {
            print!("{HELP}");
            Ok(())
        }
        "list" => {
            println!("benchmarks (SPEC OMP, Table 5):");
            for b in BenchmarkProfile::all() {
                println!(
                    "  {:<8} paper L2 transactions: {:>12}",
                    b.name, b.paper_l2_transactions
                );
            }
            println!("schemes:");
            for s in Scheme::ALL {
                println!("  {}", s.label());
            }
            Ok(())
        }
        "thermal" => (|| -> Result<(), Box<dyn Error>> {
            println!(
                "{:<26} {:>10} {:>10} {:>10}",
                "configuration", "peak C", "avg C", "min C"
            );
            for row in table3_thermal()? {
                println!(
                    "{:<26} {:>10.2} {:>10.2} {:>10.2}",
                    row.config, row.peak_c, row.avg_c, row.min_c
                );
            }
            Ok(())
        })(),
        "run" => parse_options(&args[1..])
            .map_err(Into::into)
            .and_then(|opts| match opts.resume.clone() {
                Some(path) => run_resumed(&path),
                None => {
                    println!("benchmark: {}", opts.bench.name);
                    run_one(&opts, opts.scheme, opts.obs())
                }
            }),
        "breakdown" => parse_options(&args[1..])
            .map_err(Into::into)
            .and_then(|opts| {
                println!("benchmark: {}", opts.bench.name);
                let scale = ExperimentScale {
                    seed: opts.seed,
                    warmup: opts.warmup,
                    sample: opts.sample,
                };
                let rows = latency_breakdown(std::slice::from_ref(&opts.bench), scale)?;
                print!("{:<14}", "scheme");
                for phase in Phase::ALL {
                    print!(" {:>14}", phase.name());
                }
                println!(" {:>14}", "total");
                for row in rows {
                    print!("{:<14}", row.scheme.label());
                    for mean in row.phases {
                        print!(" {:>14.2}", mean);
                    }
                    println!(" {:>14.2}", row.total());
                }
                Ok(())
            }),
        "scale" => parse_scale_options(&args[1..])
            .map_err(Into::into)
            .and_then(|opts| cmd_scale(&opts)),
        "compare" => parse_options(&args[1..])
            .map_err(Into::into)
            .and_then(|mut opts| {
                println!("benchmark: {}", opts.bench.name);
                // Tracing a 4-scheme sweep into one file would interleave
                // unrelated runs, and four schemes would fight over one
                // snapshot image; both are `run` concerns.
                opts.snapshot_out = None;
                for scheme in Scheme::ALL {
                    run_one(&opts, scheme, Obs::disabled())?;
                }
                Ok(())
            }),
        other => Err(format!("unknown command '{other}' (try `nim help`)").into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_apply_without_flags() {
        let opts = parse_options(&[]).unwrap();
        assert_eq!(opts.scheme, Scheme::CmpDnuca3d);
        assert_eq!(opts.bench.name, "swim");
        assert_eq!(opts.layers, None);
        assert_eq!(opts.pillars, None);
        assert_eq!(opts.effective_config().network.layers, 2);
        assert_eq!(opts.fabric, FabricKind::Sim);
        assert_eq!(opts.sample, 20_000);
    }

    #[test]
    fn topology_presets_parse_and_flags_override() {
        let opts = parse_options(&args(&["--topology", "8-layer"])).unwrap();
        assert_eq!(opts.topology.layers, Some(8));
        assert_eq!(opts.effective_config().network.layers, 8);
        let opts = parse_options(&args(&["--topology", "8-layer", "--layers", "4"])).unwrap();
        assert_eq!(
            opts.effective_config().network.layers,
            4,
            "explicit --layers wins"
        );
        let opts = parse_options(&args(&[
            "--topology",
            "layers=4,pillars=4,placement=corners",
        ]))
        .unwrap();
        assert_eq!(opts.topology.layers, Some(4));
        assert_eq!(opts.topology.pillars, Some(4));
        assert!(parse_options(&args(&["--topology", "moebius"]))
            .unwrap_err()
            .contains("--topology"));
    }

    #[test]
    fn fabric_flag_parses() {
        let opts = parse_options(&args(&["--fabric", "latency-table"])).unwrap();
        assert_eq!(opts.fabric, FabricKind::LatencyTable);
        assert!(parse_options(&args(&["--fabric", "warp-drive"]))
            .unwrap_err()
            .contains("warp-drive"));
    }

    #[test]
    fn scale_options_parse_comma_grids() {
        let opts = parse_scale_options(&args(&[
            "--layers",
            "2,4",
            "--cpus",
            "4,8",
            "--placements",
            "spread,corners",
            "--fabric",
            "sim,ideal",
            "--sample",
            "500",
        ]))
        .unwrap();
        assert_eq!(opts.layers, vec![2, 4]);
        assert_eq!(opts.cpus, vec![4, 8]);
        assert_eq!(opts.placements.len(), 2);
        assert_eq!(opts.fabrics, vec![FabricKind::Sim, FabricKind::Ideal]);
        assert_eq!(opts.sample, 500);
        let grid = scale_grid(&opts);
        assert_eq!(grid.len(), 2 * 2 * 2 * 2);
        assert!(parse_scale_options(&args(&["--placements", "everywhere"]))
            .unwrap_err()
            .contains("everywhere"));
    }

    #[test]
    fn flags_override_defaults() {
        let opts = parse_options(&args(&[
            "--scheme",
            "snuca3d",
            "--bench",
            "mgrid",
            "--layers",
            "4",
            "--pillars",
            "4",
            "--l2-scale",
            "2",
            "--warmup",
            "10",
            "--sample",
            "100",
            "--seed",
            "7",
        ]))
        .unwrap();
        assert_eq!(opts.scheme, Scheme::CmpSnuca3d);
        assert_eq!(opts.bench.name, "mgrid");
        assert_eq!(opts.layers, Some(4));
        assert_eq!(opts.pillars, Some(4));
        assert_eq!(opts.l2_scale, 2);
        assert_eq!(opts.warmup, 10);
        assert_eq!(opts.sample, 100);
        assert_eq!(opts.seed, 7);
    }

    #[test]
    fn observability_flags_parse() {
        let opts = parse_options(&args(&[
            "--trace-out",
            "t.json",
            "--trace-filter",
            "packet,pillar",
            "--metrics-out",
            "m.json",
            "--sample-every",
            "1000",
        ]))
        .unwrap();
        assert_eq!(opts.trace_out.as_deref(), Some("t.json"));
        assert_eq!(opts.metrics_out.as_deref(), Some("m.json"));
        assert_eq!(opts.sample_every, 1_000);
        assert!(opts.obs().is_enabled());
        assert!(parse_options(&args(&["--trace-filter", "bogus"]))
            .unwrap_err()
            .contains("--trace-filter"));
    }

    #[test]
    fn obs_defaults_to_disabled() {
        assert!(!parse_options(&[]).unwrap().obs().is_enabled());
    }

    #[test]
    fn txn_sampling_implies_tracing() {
        let opts = parse_options(&args(&["--trace-txn-sample", "100"])).unwrap();
        assert_eq!(opts.txn_sample, 100);
        let obs = opts.obs();
        assert!(obs.is_enabled(), "span sampling enables observability");
        assert!(obs.txn_span_due(0), "txn 0 is on the stride");
        assert!(!obs.txn_span_due(1), "txn 1 is off the stride");
        assert!(parse_options(&args(&["--trace-txn-sample", "x"]))
            .unwrap_err()
            .contains("--trace-txn-sample"));
    }

    #[test]
    fn snapshot_flags_parse() {
        let opts = parse_options(&args(&[
            "--snapshot-out",
            "ckpt.nim",
            "--snapshot-every",
            "5000",
        ]))
        .unwrap();
        assert_eq!(opts.snapshot_out.as_deref(), Some("ckpt.nim"));
        assert_eq!(opts.snapshot_every, 5_000);
        assert!(parse_options(&args(&["--snapshot-every", "100"]))
            .unwrap_err()
            .contains("--snapshot-out"));
        let opts = parse_options(&args(&["--resume", "ckpt.nim"])).unwrap();
        assert_eq!(opts.resume.as_deref(), Some("ckpt.nim"));
    }

    #[test]
    fn scheme_aliases_resolve() {
        assert_eq!(parse_scheme("dnuca").unwrap(), Scheme::CmpDnuca);
        assert_eq!(parse_scheme("CMP-DNUCA-2D").unwrap(), Scheme::CmpDnuca2d);
        assert_eq!(parse_scheme("3d").unwrap(), Scheme::CmpDnuca3d);
        assert!(parse_scheme("bogus").is_err());
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(parse_options(&args(&["--bench", "doom"]))
            .unwrap_err()
            .contains("doom"));
        assert!(parse_options(&args(&["--layers"]))
            .unwrap_err()
            .contains("needs a value"));
        assert!(parse_options(&args(&["--bogus"]))
            .unwrap_err()
            .contains("bogus"));
        assert!(parse_options(&args(&["--layers", "xyz"]))
            .unwrap_err()
            .contains("--layers"));
        assert!(parse_options(&args(&["--shards", "2"]))
            .unwrap_err()
            .contains("unknown option '--shards'"));
        assert!(parse_scale_options(&args(&["--shards", "2"]))
            .unwrap_err()
            .contains("unknown option '--shards'"));
    }
}

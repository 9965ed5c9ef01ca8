//! One driver per table and figure of the paper's evaluation (§5.2).
//!
//! Each function reproduces the data behind one exhibit:
//!
//! | Exhibit | Function | Metric |
//! |---|---|---|
//! | Table 3 | [`table3_thermal`] | peak/avg/min temperature per placement |
//! | Fig. 13 | [`fig13_l2_latency`] | avg L2 hit latency, 4 schemes |
//! | Fig. 14 | [`fig14_migrations`] | block migrations normalised to CMP-DNUCA-2D |
//! | Fig. 15 | [`fig15_ipc`] | IPC, 4 schemes |
//! | Fig. 16 | [`fig16_cache_size`] | latency at 16/32/64 MB, 2D vs 3D |
//! | Fig. 17 | [`fig17_pillars`] | latency vs pillar count (8/4/2) |
//! | Fig. 18 | [`fig18_layers`] | latency vs layer count (2/4) |
//! | — | [`latency_breakdown`] | per-phase latency decomposition, 4 schemes |
//!
//! The last exhibit has no counterpart in the paper: it decomposes the
//! Fig. 13 means into the five attribution phases recorded by the
//! engine's per-transaction timelines.
//!
//! Tables 1 and 2 are pure models, regenerated directly by
//! [`nim_power::table1`] and [`nim_power::table2_row`].
//!
//! The paper samples 2 G cycles per run; these drivers scale the sample
//! down (configurable via [`ExperimentScale`]) — ample for steady-state
//! latency statistics of a memory system this size, and the Fig. 14
//! metric is normalised so absolute volume cancels.

use core::error::Error;
use core::fmt;

use nim_thermal::{ThermalConfig, ThermalModel};
use nim_topology::{ChipLayout, Floorplan, PlacementPolicy};
use nim_types::{PillarPlacement, SystemConfig};
use nim_workload::BenchmarkProfile;

use crate::builder::SystemBuilder;
use crate::error::{BuildError, RunError, SnapshotError};
use crate::fabric::FabricKind;
use crate::parallel::par_map;
use crate::report::RunReport;
use crate::scheme::Scheme;

/// Error from an experiment driver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExperimentError {
    /// A system failed to build.
    Build(BuildError),
    /// A run failed.
    Run(RunError),
    /// A warmup-fork image failed to capture or restore.
    Snapshot(SnapshotError),
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Build(e) => write!(f, "build: {e}"),
            ExperimentError::Run(e) => write!(f, "run: {e}"),
            ExperimentError::Snapshot(e) => write!(f, "warmup fork: {e}"),
        }
    }
}

impl Error for ExperimentError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExperimentError::Build(e) => Some(e),
            ExperimentError::Run(e) => Some(e),
            ExperimentError::Snapshot(e) => Some(e),
        }
    }
}

impl From<BuildError> for ExperimentError {
    fn from(e: BuildError) -> Self {
        ExperimentError::Build(e)
    }
}

impl From<RunError> for ExperimentError {
    fn from(e: RunError) -> Self {
        ExperimentError::Run(e)
    }
}

impl From<SnapshotError> for ExperimentError {
    fn from(e: SnapshotError) -> Self {
        ExperimentError::Snapshot(e)
    }
}

/// How much to sample per run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExperimentScale {
    /// Workload seed.
    pub seed: u64,
    /// Transactions completed before measurement.
    pub warmup: u64,
    /// Transactions measured.
    pub sample: u64,
}

impl Default for ExperimentScale {
    /// The scale used by the shipped EXPERIMENTS.md numbers.
    fn default() -> Self {
        Self {
            seed: 42,
            warmup: 2_000,
            sample: 20_000,
        }
    }
}

impl ExperimentScale {
    /// A fast scale for tests and smoke runs.
    pub fn quick() -> Self {
        Self {
            seed: 42,
            warmup: 200,
            sample: 1_500,
        }
    }
}

// ---------------------------------------------------------------------------
// The parallel sweep cell — every driver fans out through this.
// ---------------------------------------------------------------------------

/// One independent simulation cell of a sweep: a scheme, a benchmark, and
/// optional configuration overrides. Cells are `Copy` descriptions — the
/// system itself is built (and dropped) inside the worker that claims the
/// cell, so nothing crosses threads but the spec and its [`RunReport`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepSpec {
    /// Scheme to simulate.
    pub scheme: Scheme,
    /// Index into the benchmark slice handed to [`run_cells`].
    pub benchmark: usize,
    /// Device-layer override (3D schemes only).
    pub layers: Option<u8>,
    /// Vertical-pillar-count override.
    pub pillars: Option<u16>,
    /// Power-of-two L2 capacity scale override (Fig. 16).
    pub l2_scale: Option<u32>,
}

impl SweepSpec {
    /// A cell with the paper's default configuration.
    pub fn new(scheme: Scheme, benchmark: usize) -> Self {
        Self {
            scheme,
            benchmark,
            layers: None,
            pillars: None,
            l2_scale: None,
        }
    }

    /// Overrides the device-layer count.
    pub fn layers(mut self, layers: u8) -> Self {
        self.layers = Some(layers);
        self
    }

    /// Overrides the pillar count.
    pub fn pillars(mut self, pillars: u16) -> Self {
        self.pillars = Some(pillars);
        self
    }

    /// Overrides the L2 capacity scale factor.
    pub fn l2_scale(mut self, factor: u32) -> Self {
        self.l2_scale = Some(factor);
        self
    }

    /// The builder for this cell's system.
    fn builder(&self, scale: ExperimentScale) -> SystemBuilder {
        let mut b = SystemBuilder::new(self.scheme)
            .seed(scale.seed)
            .warmup_transactions(scale.warmup)
            .sampled_transactions(scale.sample);
        if let Some(l) = self.layers {
            b = b.layers(l);
        }
        if let Some(p) = self.pillars {
            b = b.pillars(p);
        }
        if let Some(f) = self.l2_scale {
            b = b.l2_scale(f);
        }
        b
    }

    fn run(
        &self,
        benchmarks: &[BenchmarkProfile],
        scale: ExperimentScale,
    ) -> Result<RunReport, ExperimentError> {
        let mut system = self.builder(scale).build()?;
        Ok(system.run(&benchmarks[self.benchmark])?)
    }

    /// Simulates this cell's warmup once and snapshots at the boundary:
    /// the shared image every duplicate cell forks from.
    fn warmup_image(
        &self,
        benchmarks: &[BenchmarkProfile],
        scale: ExperimentScale,
    ) -> Result<Vec<u8>, ExperimentError> {
        let mut system = self.builder(scale).build()?;
        let mut gen = system.begin(&benchmarks[self.benchmark]);
        match system.run_until(&mut gen, scale.warmup)? {
            None => Ok(system.snapshot(&gen)?),
            Some(_) => unreachable!("warmup stop is below the sampling target"),
        }
    }
}

/// Runs every cell across [`crate::parallel::configured_jobs`] worker
/// threads and returns the per-cell outcomes **in cell order** — the
/// ordering (and, because each cell is a seeded, self-contained
/// simulation, every value) is bit-identical to running the cells
/// sequentially, for any thread count.
///
/// Cells with *identical* specs replay the exact same warmup
/// trajectory, so they are warmup-forked: one leader per duplicate
/// group simulates warmup once, snapshots at the boundary
/// ([`crate::System::snapshot`]), and every member resumes from the
/// shared image — bit-identical to a cold start by the
/// snapshot-equivalence invariant, while paying for warmup once per
/// group instead of once per cell.
pub fn run_cells_raw(
    benchmarks: &[BenchmarkProfile],
    scale: ExperimentScale,
    specs: &[SweepSpec],
) -> Vec<Result<RunReport, ExperimentError>> {
    // Group duplicates under their first occurrence.
    let leader_of: Vec<usize> = specs
        .iter()
        .map(|spec| specs.iter().position(|s| s == spec).expect("self"))
        .collect();
    let mut group_size = vec![0usize; specs.len()];
    for &l in &leader_of {
        group_size[l] += 1;
    }
    // Forking needs a warmup phase to share and a sampling phase to
    // diverge into; otherwise every cell just runs cold.
    let forkable = scale.warmup > 0 && scale.sample > 0;
    let leaders: Vec<usize> = (0..specs.len())
        .filter(|&i| forkable && leader_of[i] == i && group_size[i] > 1)
        .collect();
    let images: Vec<Result<Vec<u8>, ExperimentError>> =
        par_map(&leaders, |_, &i| specs[i].warmup_image(benchmarks, scale));
    let image_of: std::collections::HashMap<usize, &Result<Vec<u8>, ExperimentError>> =
        leaders.iter().copied().zip(images.iter()).collect();
    par_map(specs, |i, spec| match image_of.get(&leader_of[i]) {
        Some(Ok(image)) => {
            let mut resumed = SystemBuilder::resume_from(image, None)?;
            Ok(resumed.finish()?)
        }
        Some(Err(e)) => Err(e.clone()),
        None => spec.run(benchmarks, scale),
    })
}

/// Like [`run_cells_raw`], but fails with the first (in cell order)
/// error — the same error a sequential runner would have stopped at.
///
/// # Errors
///
/// Returns the first cell's [`ExperimentError`] in cell order.
pub fn run_cells(
    benchmarks: &[BenchmarkProfile],
    scale: ExperimentScale,
    specs: &[SweepSpec],
) -> Result<Vec<RunReport>, ExperimentError> {
    run_cells_raw(benchmarks, scale, specs)
        .into_iter()
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 13 / Figure 15 — four schemes over the benchmarks.
// ---------------------------------------------------------------------------

/// One benchmark's results across all four schemes.
#[derive(Clone, Debug)]
pub struct SchemeComparisonRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Reports in [`Scheme::ALL`] order.
    pub reports: Vec<RunReport>,
}

impl SchemeComparisonRow {
    /// The report for one scheme.
    pub fn report(&self, scheme: Scheme) -> &RunReport {
        self.reports
            .iter()
            .find(|r| r.scheme == scheme)
            .expect("all schemes present")
    }
}

/// Figure 13: average L2 hit latency under the four schemes.
pub fn fig13_l2_latency(
    benchmarks: &[BenchmarkProfile],
    scale: ExperimentScale,
) -> Result<Vec<SchemeComparisonRow>, ExperimentError> {
    let specs: Vec<SweepSpec> = (0..benchmarks.len())
        .flat_map(|bi| Scheme::ALL.iter().map(move |&s| SweepSpec::new(s, bi)))
        .collect();
    let mut reports = run_cells(benchmarks, scale, &specs)?.into_iter();
    Ok(benchmarks
        .iter()
        .map(|bench| SchemeComparisonRow {
            benchmark: bench.name.to_string(),
            reports: reports.by_ref().take(Scheme::ALL.len()).collect(),
        })
        .collect())
}

/// Figure 15 reuses the same runs as Figure 13 (IPC is read from the same
/// reports), so it shares the row type and driver.
pub fn fig15_ipc(
    benchmarks: &[BenchmarkProfile],
    scale: ExperimentScale,
) -> Result<Vec<SchemeComparisonRow>, ExperimentError> {
    fig13_l2_latency(benchmarks, scale)
}

// ---------------------------------------------------------------------------
// Latency breakdown — the attribution figure the paper lacks.
// ---------------------------------------------------------------------------

/// One scheme's per-transaction latency decomposition on one benchmark.
#[derive(Clone, Debug)]
pub struct BreakdownRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Scheme simulated.
    pub scheme: Scheme,
    /// Mean cycles per transaction in each attribution phase, in
    /// [`Phase::ALL`](crate::txn::Phase::ALL) order.
    pub phases: [f64; 5],
}

impl BreakdownRow {
    /// Mean end-to-end transaction latency — exactly the sum of the
    /// five phase means, by the attribution sum invariant.
    pub fn total(&self) -> f64 {
        self.phases.iter().sum()
    }
}

/// The latency-breakdown exhibit: where each scheme's transaction
/// cycles actually go — horizontal NoC hops, dTDMA pillar waits,
/// tag/bank serialization, L2 service, or off-chip memory. The paper
/// reports only end-to-end means (Fig. 13); this decomposes them, per
/// scheme per benchmark, using the engine's per-transaction timelines.
///
/// Rows are grouped per benchmark, [`Scheme::ALL`] order within each.
///
/// # Errors
///
/// Returns the first cell's [`ExperimentError`] in cell order.
pub fn latency_breakdown(
    benchmarks: &[BenchmarkProfile],
    scale: ExperimentScale,
) -> Result<Vec<BreakdownRow>, ExperimentError> {
    let specs: Vec<SweepSpec> = (0..benchmarks.len())
        .flat_map(|bi| Scheme::ALL.iter().map(move |&s| SweepSpec::new(s, bi)))
        .collect();
    let reports = run_cells(benchmarks, scale, &specs)?;
    Ok(specs
        .iter()
        .zip(&reports)
        .map(|(spec, report)| BreakdownRow {
            benchmark: benchmarks[spec.benchmark].name.to_string(),
            scheme: spec.scheme,
            phases: report.latency_breakdown(),
        })
        .collect())
}

// ---------------------------------------------------------------------------
// Figure 14 — migrations normalised to CMP-DNUCA-2D.
// ---------------------------------------------------------------------------

/// One benchmark's migration volume, normalised to CMP-DNUCA-2D = 1.0.
#[derive(Clone, Debug)]
pub struct Fig14Row {
    /// Benchmark name.
    pub benchmark: String,
    /// CMP-DNUCA (baseline, edge CPUs) relative migrations.
    pub cmp_dnuca: f64,
    /// CMP-DNUCA-3D relative migrations.
    pub cmp_dnuca_3d: f64,
}

/// Figure 14: block migrations of CMP-DNUCA and CMP-DNUCA-3D, normalised
/// to CMP-DNUCA-2D.
pub fn fig14_migrations(
    benchmarks: &[BenchmarkProfile],
    scale: ExperimentScale,
) -> Result<Vec<Fig14Row>, ExperimentError> {
    const SCHEMES: [Scheme; 3] = [Scheme::CmpDnuca2d, Scheme::CmpDnuca, Scheme::CmpDnuca3d];
    let specs: Vec<SweepSpec> = (0..benchmarks.len())
        .flat_map(|bi| SCHEMES.iter().map(move |&s| SweepSpec::new(s, bi)))
        .collect();
    let reports = run_cells(benchmarks, scale, &specs)?;
    Ok(benchmarks
        .iter()
        .zip(reports.chunks_exact(SCHEMES.len()))
        .map(|(bench, chunk)| {
            let [base, dnuca, d3] = chunk else {
                unreachable!("chunks_exact yields {} reports", SCHEMES.len())
            };
            let denom = base.counters.migrations.max(1) as f64;
            Fig14Row {
                benchmark: bench.name.to_string(),
                cmp_dnuca: dnuca.counters.migrations as f64 / denom,
                cmp_dnuca_3d: d3.counters.migrations as f64 / denom,
            }
        })
        .collect())
}

// ---------------------------------------------------------------------------
// Figure 16 — L2 capacity scaling.
// ---------------------------------------------------------------------------

/// Latency of one (benchmark, capacity) cell for 2D and 3D DNUCA.
#[derive(Clone, Debug)]
pub struct Fig16Row {
    /// Benchmark name.
    pub benchmark: String,
    /// L2 capacity in MB.
    pub l2_mb: u32,
    /// CMP-DNUCA-2D average hit latency.
    pub latency_2d: f64,
    /// CMP-DNUCA-3D average hit latency.
    pub latency_3d: f64,
}

/// Figure 16: average L2 hit latency at 16, 32, and 64 MB.
pub fn fig16_cache_size(
    benchmarks: &[BenchmarkProfile],
    scale: ExperimentScale,
) -> Result<Vec<Fig16Row>, ExperimentError> {
    const FACTORS: [u32; 3] = [1, 2, 4];
    let mut specs = Vec::new();
    for bi in 0..benchmarks.len() {
        for factor in FACTORS {
            specs.push(SweepSpec::new(Scheme::CmpDnuca2d, bi).l2_scale(factor));
            specs.push(SweepSpec::new(Scheme::CmpDnuca3d, bi).l2_scale(factor));
        }
    }
    let reports = run_cells(benchmarks, scale, &specs)?;
    let mut rows = Vec::with_capacity(benchmarks.len() * FACTORS.len());
    for (i, pair) in reports.chunks_exact(2).enumerate() {
        let bench = &benchmarks[i / FACTORS.len()];
        let factor = FACTORS[i % FACTORS.len()];
        rows.push(Fig16Row {
            benchmark: bench.name.to_string(),
            l2_mb: 16 * factor,
            latency_2d: pair[0].avg_l2_hit_latency(),
            latency_3d: pair[1].avg_l2_hit_latency(),
        });
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// Figure 17 — pillar count.
// ---------------------------------------------------------------------------

/// Latency of one (benchmark, pillar count) cell.
#[derive(Clone, Debug)]
pub struct Fig17Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Number of vertical pillars.
    pub pillars: u16,
    /// CMP-DNUCA-3D average hit latency.
    pub latency: f64,
}

/// Figure 17: impact of the number of pillars (8/4/2) on the
/// CMP-DNUCA-3D scheme. Fewer pillars mean shared vertical links and
/// Algorithm 1 placement.
pub fn fig17_pillars(
    benchmarks: &[BenchmarkProfile],
    scale: ExperimentScale,
) -> Result<Vec<Fig17Row>, ExperimentError> {
    const PILLARS: [u16; 3] = [8, 4, 2];
    let specs: Vec<SweepSpec> = (0..benchmarks.len())
        .flat_map(|bi| {
            PILLARS
                .iter()
                .map(move |&p| SweepSpec::new(Scheme::CmpDnuca3d, bi).pillars(p))
        })
        .collect();
    let reports = run_cells(benchmarks, scale, &specs)?;
    Ok(specs
        .iter()
        .zip(&reports)
        .map(|(spec, report)| Fig17Row {
            benchmark: benchmarks[spec.benchmark].name.to_string(),
            pillars: spec.pillars.expect("every fig17 cell sets pillars"),
            latency: report.avg_l2_hit_latency(),
        })
        .collect())
}

// ---------------------------------------------------------------------------
// Figure 18 — layer count.
// ---------------------------------------------------------------------------

/// Latency of one (benchmark, layer count) cell.
#[derive(Clone, Debug)]
pub struct Fig18Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Device layers.
    pub layers: u8,
    /// CMP-SNUCA-3D average hit latency.
    pub latency: f64,
}

/// Figure 18: impact of the number of layers (2/4) on the CMP-SNUCA-3D
/// scheme.
pub fn fig18_layers(
    benchmarks: &[BenchmarkProfile],
    scale: ExperimentScale,
) -> Result<Vec<Fig18Row>, ExperimentError> {
    const LAYERS: [u8; 2] = [2, 4];
    let specs: Vec<SweepSpec> = (0..benchmarks.len())
        .flat_map(|bi| {
            LAYERS
                .iter()
                .map(move |&l| SweepSpec::new(Scheme::CmpSnuca3d, bi).layers(l))
        })
        .collect();
    let reports = run_cells(benchmarks, scale, &specs)?;
    Ok(specs
        .iter()
        .zip(&reports)
        .map(|(spec, report)| Fig18Row {
            benchmark: benchmarks[spec.benchmark].name.to_string(),
            layers: spec.layers.expect("every fig18 cell sets layers"),
            latency: report.avg_l2_hit_latency(),
        })
        .collect())
}

// ---------------------------------------------------------------------------
// Configuration sweep — the full (layers × pillars) design space.
// ---------------------------------------------------------------------------

/// One cell of a design-space sweep.
#[derive(Clone, Debug)]
pub struct SweepCell {
    /// Device layers.
    pub layers: u8,
    /// Vertical pillars.
    pub pillars: u16,
    /// The run's full report.
    pub report: RunReport,
}

/// Sweeps the (layers × pillars) design space for one scheme and
/// benchmark, skipping combinations the configuration rules reject
/// (e.g. more CPUs than Algorithm 1 can seat). This generalises the
/// paper's Figures 17 and 18 into the full grid a designer would explore.
pub fn sweep_design_space(
    scheme: Scheme,
    bench: &BenchmarkProfile,
    layers: &[u8],
    pillars: &[u16],
    scale: ExperimentScale,
) -> Result<Vec<SweepCell>, ExperimentError> {
    let benchmarks = std::slice::from_ref(bench);
    let specs: Vec<SweepSpec> = layers
        .iter()
        .flat_map(|&l| {
            pillars
                .iter()
                .map(move |&p| SweepSpec::new(scheme, 0).layers(l).pillars(p))
        })
        .collect();
    let mut cells = Vec::new();
    for (spec, result) in specs.iter().zip(run_cells_raw(benchmarks, scale, &specs)) {
        match result {
            Ok(report) => cells.push(SweepCell {
                layers: spec.layers.expect("every sweep cell sets layers"),
                pillars: spec.pillars.expect("every sweep cell sets pillars"),
                report,
            }),
            Err(ExperimentError::Build(_)) => continue, // unbuildable cell
            Err(e) => return Err(e),
        }
    }
    Ok(cells)
}

// ---------------------------------------------------------------------------
// Scale sweep — simulator behavior and throughput across the
// (layers × CPUs × L2 banks × pillar placement × fabric) grid.
// ---------------------------------------------------------------------------

/// One cell description of a [`scale_sweep`]: a full topology + substrate
/// selection. Cells are `Copy` specs; the system is built inside the
/// worker that claims the cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScaleSpec {
    /// Device layers.
    pub layers: u8,
    /// CPUs seated on the chip.
    pub cpus: u32,
    /// Power-of-two L2 capacity factor (scales banks per cluster).
    pub l2_scale: u32,
    /// Pillar placement strategy.
    pub placement: PillarPlacement,
    /// Interconnect substrate.
    pub fabric: FabricKind,
}

impl ScaleSpec {
    /// The paper's default cell: 2 layers, 8 CPUs, 16 MB L2, spread
    /// pillars, the cycle-accurate fabric.
    pub fn new() -> Self {
        Self {
            layers: 2,
            cpus: 8,
            l2_scale: 1,
            placement: PillarPlacement::Spread,
            fabric: FabricKind::Sim,
        }
    }

    /// Stable single-line label for sweep tables and CI logs.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "layers={} cpus={} l2x{} {} {}",
            self.layers,
            self.cpus,
            self.l2_scale,
            self.placement.name(),
            self.fabric.name()
        )
    }
}

impl Default for ScaleSpec {
    fn default() -> Self {
        Self::new()
    }
}

/// One completed cell of a [`scale_sweep`].
#[derive(Clone, Debug)]
pub struct ScaleCell {
    /// The cell's spec.
    pub spec: ScaleSpec,
    /// Wall-clock seconds the run took inside its worker.
    pub wall_secs: f64,
    /// Simulated cycles per wall-clock second.
    pub cycles_per_sec: f64,
    /// [`RunReport::fingerprint`] — the determinism/equivalence gate.
    pub fingerprint: u64,
    /// The run's full report.
    pub report: RunReport,
}

/// Runs one simulation per buildable spec across the configured worker
/// threads, in spec order. Unbuildable cells (a topology the
/// configuration rules reject) come back as `None` so a sweep over a
/// coarse grid degrades gracefully; run failures abort the sweep.
///
/// # Errors
///
/// Returns the first cell's [`ExperimentError::Run`] in cell order.
pub fn scale_sweep(
    scheme: Scheme,
    bench: &BenchmarkProfile,
    specs: &[ScaleSpec],
    scale: ExperimentScale,
) -> Result<Vec<Option<ScaleCell>>, ExperimentError> {
    par_map(specs, |_, spec| {
        let built = SystemBuilder::new(scheme)
            .layers(spec.layers)
            .cpus(spec.cpus)
            .l2_scale(spec.l2_scale)
            .pillar_placement(spec.placement)
            .fabric(spec.fabric)
            .seed(scale.seed)
            .warmup_transactions(scale.warmup)
            .sampled_transactions(scale.sample)
            .build();
        let mut system = match built {
            Ok(system) => system,
            Err(_) => return Ok(None),
        };
        let start = std::time::Instant::now();
        let report = system.run(bench).map_err(ExperimentError::from)?;
        let wall_secs = start.elapsed().as_secs_f64();
        Ok(Some(ScaleCell {
            spec: *spec,
            wall_secs,
            cycles_per_sec: if wall_secs > 0.0 {
                report.cycles as f64 / wall_secs
            } else {
                0.0
            },
            fingerprint: report.fingerprint(),
            report,
        }))
    })
    .into_iter()
    .collect()
}

// ---------------------------------------------------------------------------
// Table 3 — thermal profile of the placement configurations.
// ---------------------------------------------------------------------------

/// One row of Table 3.
#[derive(Clone, Debug)]
pub struct Table3Row {
    /// Configuration label (as in the paper).
    pub config: &'static str,
    /// Peak temperature, °C.
    pub peak_c: f64,
    /// Average temperature, °C.
    pub avg_c: f64,
    /// Minimum temperature, °C.
    pub min_c: f64,
}

/// Table 3: temperature profile of the seven placement configurations
/// (8 × 8 W CPUs among 256 clock-gated banks).
///
/// The `k = 1` / `k = 2` rows share pillars (4 pillars, Algorithm 1);
/// the "optimal offset" rows give every CPU its own pillar and offset in
/// all three dimensions; the "stacking" rows align CPUs vertically.
///
/// # Errors
///
/// Returns [`ExperimentError::Build`] if a configuration cannot be
/// placed (cannot happen for the shipped rows).
pub fn table3_thermal() -> Result<Vec<Table3Row>, ExperimentError> {
    let rows: [(&'static str, u8, u16, PlacementPolicy); 7] = [
        ("2D, maximal offset", 1, 8, PlacementPolicy::Interior2d),
        (
            "3D-2L, optimal offset",
            2,
            8,
            PlacementPolicy::MaximalOffset,
        ),
        (
            "3D-2L, offset k=2",
            2,
            4,
            PlacementPolicy::Algorithm1 { k: 2 },
        ),
        (
            "3D-2L, offset k=1",
            2,
            4,
            PlacementPolicy::Algorithm1 { k: 1 },
        ),
        ("3D-2L, CPU stacking", 2, 8, PlacementPolicy::Stacked),
        (
            "3D-4L, optimal offset",
            4,
            8,
            PlacementPolicy::MaximalOffset,
        ),
        ("3D-4L, CPU stacking", 4, 8, PlacementPolicy::Stacked),
    ];
    let tcfg = ThermalConfig::default();
    par_map(&rows, |_, &(label, layers, pillars, policy)| {
        let cfg = SystemConfig::default()
            .with_layers(layers)
            .with_pillars(pillars);
        let layout = ChipLayout::new(&cfg).map_err(BuildError::from)?;
        let seats = policy
            .place(&layout, cfg.num_cpus)
            .map_err(BuildError::from)?;
        let plan = Floorplan::new(&layout, &seats);
        let profile = ThermalModel::new(&plan, &tcfg).solve(&tcfg);
        Ok(Table3Row {
            config: label,
            peak_c: profile.peak(),
            avg_c: profile.avg(),
            min_c: profile.min(),
        })
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_sweep_skips_unbuildable_cells() {
        let bench = BenchmarkProfile::art();
        let scale = ExperimentScale {
            seed: 42,
            warmup: 50,
            sample: 400,
        };
        let mk = |layers, fabric| ScaleSpec {
            layers,
            fabric,
            ..ScaleSpec::new()
        };
        let specs = [
            mk(2, FabricKind::Sim),
            mk(4, FabricKind::LatencyTable),
            mk(4, FabricKind::Ideal),
            mk(16, FabricKind::Sim), // rejected by config validation
        ];
        let cells = scale_sweep(Scheme::CmpDnuca3d, &bench, &specs, scale).expect("sweep runs");
        assert_eq!(cells.len(), specs.len());
        assert!(cells[0].is_some() && cells[1].is_some() && cells[2].is_some());
        assert!(cells[3].is_none(), "unbuildable topology is skipped");
        let done: Vec<ScaleCell> = cells.into_iter().flatten().collect();
        for c in &done {
            assert!(
                c.report.counters.l2_transactions == 400,
                "{}",
                c.spec.label()
            );
            assert!(c.cycles_per_sec > 0.0, "{}", c.spec.label());
        }
    }

    #[test]
    fn table3_reproduces_the_paper_ordering() {
        let rows = table3_thermal().expect("all configurations place");
        for r in &rows {
            eprintln!(
                "{:26} peak {:7.2}  avg {:6.2}  min {:6.2}",
                r.config, r.peak_c, r.avg_c, r.min_c
            );
        }
        let by = |label: &str| {
            rows.iter()
                .find(|r| r.config == label)
                .unwrap_or_else(|| panic!("{label} missing"))
        };
        let d2 = by("2D, maximal offset");
        let opt2 = by("3D-2L, optimal offset");
        let k2 = by("3D-2L, offset k=2");
        let k1 = by("3D-2L, offset k=1");
        let st2 = by("3D-2L, CPU stacking");
        let opt4 = by("3D-4L, optimal offset");
        let st4 = by("3D-4L, CPU stacking");
        // Peak ordering (Table 3).
        assert!(d2.peak_c < opt2.peak_c, "3D runs hotter than 2D");
        assert!(
            opt2.peak_c <= k2.peak_c,
            "shared pillars no cooler than optimal"
        );
        assert!(k2.peak_c <= k1.peak_c, "larger offset reduces the peak");
        assert!(k1.peak_c < st2.peak_c, "stacking creates hotspots");
        assert!(opt4.peak_c < st4.peak_c, "stacking is worst at 4 layers");
        assert!(opt2.peak_c < opt4.peak_c, "more layers run hotter");
        // Average depends only on layer count (same power, same footprint).
        assert!((opt2.avg_c - st2.avg_c).abs() < 1.0);
        assert!(d2.avg_c < opt2.avg_c && opt2.avg_c < opt4.avg_c);
        // Minimum below average below peak, everywhere.
        for r in &rows {
            assert!(r.min_c < r.avg_c && r.avg_c < r.peak_c, "{}", r.config);
        }
    }
}

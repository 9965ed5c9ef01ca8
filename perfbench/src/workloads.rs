//! The four workloads and the runs that measure them.
//!
//! Every workload is a batch job driven through the simulator's public
//! API only. A run repeats the workload's fixed work until its time is
//! up. On `cell_noc_swim`, `cell_ideal_art` and `ckpt_roll_swim` a repeat
//! runs a few cells that differ only in their seed, each derived from the
//! workload seed, and each followed by a separate set-up sample (with a
//! checkpoint round-trip at the warmup boundary, except on
//! `ckpt_roll_swim`, whose repeats checkpoint anyway); `sweep_fig13`
//! checkpoints four fixed cells after every sweep and takes its set-up
//! pass after every fourth. So set-up and checkpoint timings are spread
//! over the run like the repeats. Before every cell (on `sweep_fig13`,
//! before every sweep, on each of its threads, and before its
//! checkpoints and set-up pass) the host-speed probe (see
//! [`crate::host`]) is timed, and every host time measured until the
//! next probe is scaled by it. When traced, the work is then repeated
//! once more with the simulator's event trace on and a timer around
//! every `next_for` call, and that run is split by layer.

use std::time::Instant;

use nim_core::experiments::{run_cells, ExperimentScale, SweepSpec};
use nim_core::{parallel, FabricKind, RunReport, Scheme, System, SystemBuilder};
use nim_obs::{Category, CategoryMask, Obs, ObsConfig};
use nim_types::{CpuId, TraceOp};
use nim_workload::{BenchmarkProfile, TraceCursor, TraceGenerator, TraceSource};

use crate::check::Checker;
use crate::env;
use crate::host;
use crate::replay::{self, InjectSink};
use crate::spans::Spans;
use crate::stats::{self, Tail};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "cell_noc_swim",
    "cell_ideal_art",
    "sweep_fig13",
    "ckpt_roll_swim",
];

/// Transactions simulated per cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Txns {
    /// Completed before the measurement window.
    pub warmup: u64,
    /// Measured.
    pub sample: u64,
}

/// Input sizes. [`Size::full`] is what the benchmark runs;
/// [`Size::tiny`] keeps the benchmark's own tests fast.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// `cell_noc_swim` and `ckpt_roll_swim` per repeat.
    pub noc_swim: Txns,
    /// `cell_ideal_art` per repeat.
    pub ideal_art: Txns,
    /// Each of the 36 `sweep_fig13` cells.
    pub sweep: Txns,
    /// Transactions between rolling checkpoints.
    pub ckpt_every: u64,
    /// Cells per repeat of `cell_noc_swim`, `cell_ideal_art` and
    /// `ckpt_roll_swim`, each with its own seed derived from the workload
    /// seed, so one run's figure does not hang on one trace's quirks.
    pub seeds: usize,
    /// Repeats of the fixed work made however short the time.
    pub min_repeats: usize,
    /// Ticks timed on an empty network.
    pub idle_ticks: u64,
}

impl Size {
    /// The benchmark's sizes.
    pub fn full() -> Size {
        Size {
            noc_swim: Txns {
                warmup: 500,
                sample: 3_000,
            },
            ideal_art: Txns {
                warmup: 1_000,
                sample: 12_000,
            },
            sweep: Txns {
                warmup: 100,
                sample: 300,
            },
            ckpt_every: 500,
            seeds: 4,
            min_repeats: 3,
            idle_ticks: 2_000_000,
        }
    }

    /// A size small enough for the benchmark's own tests.
    pub fn tiny() -> Size {
        Size {
            noc_swim: Txns {
                warmup: 50,
                sample: 200,
            },
            ideal_art: Txns {
                warmup: 50,
                sample: 200,
            },
            sweep: Txns {
                warmup: 20,
                sample: 60,
            },
            ckpt_every: 80,
            seeds: 2,
            min_repeats: 2,
            idle_ticks: 1_000,
        }
    }
}

/// One metric as printed.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// How the value was taken (sample count, percentile).
    pub note: String,
}

/// Everything one run of one workload produced.
#[derive(Debug)]
pub struct Outcome {
    /// Checked operations, failures and fingerprints.
    pub checker: Checker,
    /// End-to-end metrics, from the untraced repeats.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (empty unless traced).
    pub per_layer: Vec<Metric>,
    /// Spans of the whole run.
    pub spans: Spans,
}

/// Runs workload `name` with workload seed `seed`, repeating its fixed
/// work for `seconds`; with `traced`, also measures the per-layer split.
///
/// # Errors
///
/// An unknown workload name, or a workload none of whose repeats
/// completed.
pub fn run(
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    size: Size,
) -> Result<Outcome, String> {
    // Untimed: the first probe of a process pays for its cold start.
    host::probe_s();
    let mut b = Bench {
        seed,
        seconds,
        size,
        spans: Spans::new(),
        chk: Checker::default(),
        s: Samples::default(),
        t: TracedSum::default(),
        factor: 1.0,
    };
    let cells = |profile, fabric, txns| -> Vec<Cell> {
        sub_seeds(seed, size.seeds)
            .map(|s| Cell::new(profile, fabric, txns, s))
            .collect()
    };
    match name {
        "cell_noc_swim" => b.cell_workload(
            &cells(BenchmarkProfile::swim(), FabricKind::Sim, size.noc_swim),
            traced,
        ),
        "cell_ideal_art" => b.cell_workload(
            &cells(BenchmarkProfile::art(), FabricKind::Ideal, size.ideal_art),
            traced,
        ),
        "sweep_fig13" => b.sweep_workload(traced),
        "ckpt_roll_swim" => b.ckpt_workload(
            &cells(BenchmarkProfile::swim(), FabricKind::Sim, size.noc_swim),
            traced,
        ),
        _ => {
            return Err(format!(
                "unknown workload {name:?}; expected one of {WORKLOADS:?}"
            ))
        }
    }
    if b.s.wall.is_empty() {
        return Err(format!(
            "no repeat of {name} completed: {:?}",
            b.chk.failures
        ));
    }
    let end_to_end = b.end_to_end();
    let per_layer = if traced { b.per_layer() } else { Vec::new() };
    Ok(Outcome {
        checker: b.chk,
        end_to_end,
        per_layer,
        spans: b.spans,
    })
}

/// `n` seeds derived from the workload seed `seed` (SplitMix64 steps).
fn sub_seeds(seed: u64, n: usize) -> impl Iterator<Item = u64> {
    (1..=n as u64).map(move |k| {
        let mut z = seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    })
}

/// One simulated configuration: a CMP-DNUCA-3D cell, or one sweep cell.
#[derive(Clone, Debug)]
struct Cell {
    scheme: Scheme,
    fabric: FabricKind,
    profile: BenchmarkProfile,
    txns: Txns,
    seed: u64,
}

impl Cell {
    fn new(profile: BenchmarkProfile, fabric: FabricKind, txns: Txns, seed: u64) -> Cell {
        Cell {
            scheme: Scheme::CmpDnuca3d,
            fabric,
            profile,
            txns,
            seed,
        }
    }

    /// The same system `run_cells` builds for a `SweepSpec`, on one
    /// thread.
    fn builder(&self) -> SystemBuilder {
        SystemBuilder::new(self.scheme)
            .fabric(self.fabric)
            .seed(self.seed)
            .warmup_transactions(self.txns.warmup)
            .sampled_transactions(self.txns.sample)
            .shards(1)
    }

    fn label(&self) -> String {
        format!(
            "{}/{}/seed {}",
            self.scheme.label(),
            self.profile.name,
            self.seed
        )
    }
}

/// The Figure-13 grid: every profile under every scheme, in the order
/// `fig13_l2_latency` lays it out.
fn fig13_cells(txns: Txns, seed: u64) -> (Vec<BenchmarkProfile>, Vec<SweepSpec>, Vec<Cell>) {
    let profiles = BenchmarkProfile::all();
    let specs: Vec<SweepSpec> = (0..profiles.len())
        .flat_map(|bi| Scheme::ALL.iter().map(move |&s| SweepSpec::new(s, bi)))
        .collect();
    let cells = specs
        .iter()
        .map(|spec| Cell {
            scheme: spec.scheme,
            fabric: FabricKind::Sim,
            profile: profiles[spec.benchmark],
            txns,
            seed,
        })
        .collect();
    (profiles, specs, cells)
}

/// Two-job sweeps timed in a traced `sweep_fig13` run.
const PARALLEL_SWEEPS: usize = 3;

/// `sweep_fig13` takes its set-up pass (all 36 systems built and begun
/// again) after every this many sweeps, so that most of the run's time
/// goes to the sweeps themselves.
const SWEEP_SETUP_EVERY: usize = 4;

/// When the repeat loop stops: after `min` repeats and `seconds` from
/// the loop's start.
#[derive(Clone, Copy, Debug)]
struct Deadline {
    start: Instant,
    seconds: f64,
    min: usize,
}

impl Deadline {
    fn more(&self, done: usize) -> bool {
        done < self.min || self.start.elapsed().as_secs_f64() < self.seconds
    }
}

/// Host-time samples, seconds unless named otherwise. Every host time
/// is scaled to the reference host's speed by the latest probe taken
/// before it (see [`host`]); only `probe` holds raw times.
#[derive(Debug, Default)]
struct Samples {
    build: Vec<f64>,
    prewarm: Vec<f64>,
    wall: Vec<f64>,
    run: Vec<f64>,
    cycles_per_s: Vec<f64>,
    write: Vec<f64>,
    resume: Vec<f64>,
    image_bytes: Vec<f64>,
    /// Raw host seconds of every host-speed probe.
    probe: Vec<f64>,
    /// Per-cell seconds at one job (sweep, traced runs only).
    cell: Vec<f64>,
    /// Wall seconds of the work the `parallel` figures divide: the median
    /// two-job sweep, or the median repeat of the other workloads.
    parallel_wall: f64,
    /// Untraced run seconds comparable with the traced runs' total:
    /// the median repeat, or the sweep's cells at one job summed.
    untraced_run_s: f64,
    jobs: usize,
}

/// Host seconds (at reference host speed) and simulated cycles of one
/// repeat, summed over its cells.
#[derive(Debug, Default)]
struct Repeat {
    wall_s: f64,
    run_s: f64,
    cycles: u64,
}

impl Repeat {
    fn add(&mut self, wall_s: f64, run_s: f64, cycles: u64) {
        self.wall_s += wall_s;
        self.run_s += run_s;
        self.cycles += cycles;
    }
}

/// Sums over the traced runs of a workload.
#[derive(Debug, Default)]
struct TracedSum {
    reports: Vec<RunReport>,
    run_s: f64,
    workload_calls: u64,
    workload_ns: u64,
    replay_s: f64,
    replay_hops: u64,
    events: u64,
    dropped: u64,
    migrations: u64,
    migrations_aborted: u64,
    idle_tick_ns: f64,
}

/// A `TraceSource` that forwards to the workload generator and, when
/// on, times every call.
struct Timed {
    inner: TraceGenerator,
    on: bool,
    calls: u64,
    ns: u64,
}

impl TraceSource for Timed {
    fn next_for(&mut self, cpu: CpuId) -> Option<TraceOp> {
        if !self.on {
            return self.inner.next_for(cpu);
        }
        let t = Instant::now();
        let op = self.inner.next_for(cpu);
        self.ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
        op
    }

    fn cursor(&self) -> TraceCursor {
        TraceSource::cursor(&self.inner)
    }
}

/// A finished run of one cell.
struct CellRun {
    system: System,
    report: RunReport,
    build_s: f64,
    prewarm_s: f64,
    run_s: f64,
    wall_s: f64,
}

struct Bench {
    seed: u64,
    seconds: f64,
    size: Size,
    spans: Spans,
    chk: Checker,
    s: Samples,
    t: TracedSum,
    /// Scale from this host's current speed to the reference host's,
    /// from the latest probe.
    factor: f64,
}

/// An observability handle that records packet events only, sized so
/// none of `packets` injections and deliveries is dropped.
fn packet_trace(packets: u64) -> Obs {
    Obs::new(ObsConfig {
        trace: true,
        trace_capacity: usize::try_from(2 * packets + 4_096).unwrap_or(usize::MAX),
        mask: CategoryMask::from_bits(0).with(Category::Packet),
        sample_every: 0,
        txn_sample: 0,
    })
}

impl Bench {
    /// Starts the repeat loop's clock.
    fn deadline(&self) -> Deadline {
        Deadline {
            start: Instant::now(),
            seconds: self.seconds,
            min: self.size.min_repeats,
        }
    }

    /// Times the host-speed probe and sets the scale for the host times
    /// measured until the next probe.
    fn calibrate(&mut self) {
        let p = host::probe_s();
        self.s.probe.push(p);
        self.factor = host::NOMINAL_PROBE_S / p;
    }

    /// Builds and begins `cell` (the set-up every run pays), in spans.
    fn start(&mut self, cell: &Cell, obs: Option<Obs>) -> Option<(System, Timed, f64, f64)> {
        let mut builder = cell.builder();
        if let Some(obs) = obs {
            builder = builder.observability(obs);
        }
        let (built, build_s) = self.spans.time("core.build", || builder.build());
        let mut system = self.chk.ok(&format!("build {}", cell.label()), built)?;
        let (gen, prewarm_s) = self
            .spans
            .time("core.prewarm", || system.begin(&cell.profile));
        let timed = Timed {
            inner: gen,
            on: false,
            calls: 0,
            ns: 0,
        };
        Some((system, timed, build_s, prewarm_s))
    }

    /// Set-up, then the run to completion; `obs` traces it.
    fn run_cell(&mut self, cell: &Cell, obs: Option<Obs>) -> Option<CellRun> {
        let traced = obs.is_some();
        self.spans.next_run();
        let top = self.spans.enter("cell");
        let Some((mut system, mut source, build_s, prewarm_s)) = self.start(cell, obs) else {
            self.spans.exit(top);
            return None;
        };
        source.on = traced;
        let run = self.spans.enter("core.run");
        let result = system.run_until(&mut source, u64::MAX);
        let run_s = self.spans.exit(run);
        if traced {
            self.spans
                .aggregate("workload.next_for", run, source.calls, source.ns);
            self.t.workload_calls += source.calls;
            self.t.workload_ns += source.ns;
        }
        let wall_s = self.spans.exit(top);
        let report = match self.chk.ok(&format!("run {}", cell.label()), result)? {
            Some(r) => r,
            None => {
                self.chk
                    .check(&format!("{} ran to completion", cell.label()), false);
                return None;
            }
        };
        Some(CellRun {
            system,
            report,
            build_s,
            prewarm_s,
            run_s,
            wall_s,
        })
    }

    /// Snapshots `system` at its pause, resumes the image into a fresh
    /// system, snapshots that again and checks the two images are
    /// byte-identical. Returns the image and the write and resume seconds.
    fn round_trip(
        &mut self,
        system: &System,
        source: &Timed,
        what: &str,
    ) -> Option<(Vec<u8>, f64, f64)> {
        let (image, write_s) = self
            .spans
            .time("snapshot.write", || system.snapshot(source));
        let image = self.chk.ok(&format!("snapshot {what}"), image)?;
        let (resumed, resume_s) = self.spans.time("snapshot.resume", || {
            SystemBuilder::resume_from(&image, Some(1))
        });
        let resumed = self.chk.ok(&format!("resume {what}"), resumed)?;
        let again = self
            .chk
            .ok(&format!("re-snapshot {what}"), resumed.snapshot())?;
        self.chk.check(
            &format!("checkpoint round-trip of {what} is byte-identical"),
            again == image,
        );
        Some((image, write_s, resume_s))
    }

    fn record_checkpoint(&mut self, image: &[u8], write_s: f64, resume_s: f64) {
        self.s.write.push(write_s * self.factor);
        self.s.resume.push(resume_s * self.factor);
        self.s.image_bytes.push(image.len() as f64);
    }

    /// Drives a begun system to its warmup boundary and round-trips a
    /// checkpoint there.
    fn checkpoint_at_warmup(&mut self, cell: &Cell, system: &mut System, source: &mut Timed) {
        let paused = system.run_until(source, cell.txns.warmup);
        if let Some(None) = self.chk.ok(&format!("warm {}", cell.label()), paused) {
            if let Some((image, w, r)) = self.round_trip(system, source, &cell.label()) {
                self.record_checkpoint(&image, w, r);
            }
        }
    }

    /// One set-up sample taken between repeats, so set-up is sampled
    /// across the whole run: builds and begins `cell`, and with
    /// `checkpoint` also drives it to its warmup boundary and
    /// round-trips a checkpoint there.
    fn setup_sample(&mut self, cell: &Cell, checkpoint: bool) {
        self.spans.next_run();
        let Some((mut system, mut source, build_s, prewarm_s)) = self.start(cell, None) else {
            return;
        };
        self.record_setup(build_s, prewarm_s);
        if checkpoint {
            self.checkpoint_at_warmup(cell, &mut system, &mut source);
        }
    }

    /// The `parallel` figures of a workload that runs its cells one after
    /// another: one job, one "cell" of the median repeat's length.
    fn single_cell_parallel(&mut self) {
        self.s.jobs = 1;
        self.s.parallel_wall = stats::median(&self.s.wall);
        self.s.cell = vec![self.s.parallel_wall];
        self.s.untraced_run_s = stats::median(&self.s.run);
    }

    fn record_setup(&mut self, build_s: f64, prewarm_s: f64) {
        self.s.build.push(build_s * self.factor);
        self.s.prewarm.push(prewarm_s * self.factor);
    }

    fn record_repeat(&mut self, r: &Repeat) {
        self.s.wall.push(r.wall_s);
        self.s.run.push(r.run_s);
        self.s.cycles_per_s.push(r.cycles as f64 / r.run_s);
    }

    /// `cell_noc_swim` and `cell_ideal_art`: a repeat runs each cell once,
    /// each followed by a set-up sample with a checkpoint.
    fn cell_workload(&mut self, cells: &[Cell], traced: bool) {
        let mut references: Vec<RunReport> = Vec::with_capacity(cells.len());
        let deadline = self.deadline();
        'repeats: while deadline.more(self.s.wall.len()) {
            let mut repeat = Repeat::default();
            for (i, cell) in cells.iter().enumerate() {
                self.calibrate();
                let Some(r) = self.run_cell(cell, None) else {
                    break 'repeats;
                };
                match references.get(i) {
                    None => self.chk.note(cell.label(), r.report.fingerprint()),
                    Some(first) => self.chk.same(
                        &format!("repeat of {}", cell.label()),
                        first.fingerprint(),
                        r.report.fingerprint(),
                    ),
                }
                self.record_setup(r.build_s, r.prewarm_s);
                let f = self.factor;
                repeat.add(r.wall_s * f, r.run_s * f, r.report.cycles);
                let CellRun { system, report, .. } = r;
                drop(system);
                if references.len() == i {
                    references.push(report);
                }
                self.setup_sample(cell, true);
            }
            self.record_repeat(&repeat);
        }
        self.single_cell_parallel();
        if traced && references.len() == cells.len() {
            self.calibrate();
            for (cell, reference) in cells.iter().zip(&references) {
                self.traced_cell(cell, reference);
            }
            self.idle_tick(&cells[0]);
        }
    }

    /// One traced run of `cell`: checks it against the untraced
    /// `reference`, then replays its packets into a standalone network.
    fn traced_cell(&mut self, cell: &Cell, reference: &RunReport) {
        let Some(r) = self.run_cell(cell, Some(packet_trace(reference.network.packets_sent)))
        else {
            return;
        };
        self.chk.same(
            &format!("traced run of {}", cell.label()),
            reference.fingerprint(),
            r.report.fingerprint(),
        );
        self.t.run_s += r.run_s;
        self.collect_trace(&r.system, &r.report);
        self.t.reports.push(r.report);
    }

    /// Folds a traced system's events and counters into the sums and
    /// replays its packet injections.
    fn collect_trace(&mut self, system: &System, report: &RunReport) {
        let obs = system.obs();
        self.t.events += obs.event_count() as u64;
        self.t.dropped += obs.dropped_events();
        self.t.migrations += obs.counter("l2/migrations");
        self.t.migrations_aborted += obs.counter("l2/migrations_aborted");
        let mut sink = InjectSink::default();
        if let Some(e) = obs.export_trace(&mut sink).err() {
            self.chk.ok::<(), _>("export trace", Err(e));
            return;
        }
        self.chk.check(
            "every traced packet injection was kept and parsed",
            sink.malformed == 0 && sink.injects.len() as u64 == report.network.packets_sent,
        );
        let replay_span = self.spans.enter("noc.replay");
        let rep = replay::replay(system.layout(), &system.config().network, &sink.injects);
        self.spans.exit(replay_span);
        self.chk.check(
            "the replay delivered every traced packet",
            rep.delivered == sink.injects.len() as u64,
        );
        self.t.replay_s += rep.secs;
        self.t.replay_hops += rep.flit_hops;
    }

    fn idle_tick(&mut self, cell: &Cell) {
        let Some(system) = self.chk.ok("build for idle tick", cell.builder().build()) else {
            return;
        };
        let (ns, _) = self.spans.time("noc.idle_tick", || {
            let runs: Vec<f64> = (0..5)
                .map(|_| {
                    replay::idle_tick_ns(
                        system.layout(),
                        &system.config().network,
                        self.size.idle_ticks,
                    )
                })
                .collect();
            stats::median(&runs)
        });
        self.t.idle_tick_ns = ns;
    }

    /// `sweep_fig13`. The timed sweeps run at one job: on a small shared
    /// host, two threads spread the runs of the same code far wider than
    /// one, as the host slows either thread unseen by the probe. The
    /// two-job sweep is timed in the traced run, for the `parallel`
    /// figures.
    fn sweep_workload(&mut self, traced: bool) {
        let (profiles, specs, cells) = fig13_cells(self.size.sweep, self.seed);
        let scale = ExperimentScale {
            seed: self.seed,
            warmup: self.size.sweep.warmup,
            sample: self.size.sweep.sample,
        };
        parallel::set_jobs_override(Some(1));
        let mut reference: Option<Vec<u64>> = None;
        let deadline = self.deadline();
        while deadline.more(self.s.wall.len()) {
            self.calibrate();
            self.spans.next_run();
            let (result, wall_s) = self
                .spans
                .time("parallel.run_cells", || run_cells(&profiles, scale, &specs));
            let Some(reports) = self.chk.ok("run_cells", result) else {
                break;
            };
            let fps: Vec<u64> = reports.iter().map(RunReport::fingerprint).collect();
            match &reference {
                None => {
                    for (cell, &fp) in cells.iter().zip(&fps) {
                        self.chk.note(cell.label(), fp);
                    }
                }
                Some(first) => {
                    for ((cell, &a), &b) in cells.iter().zip(first).zip(&fps) {
                        self.chk.same(&format!("repeat of {}", cell.label()), a, b);
                    }
                }
            }
            let cycles: u64 = reports.iter().map(|r| r.cycles).sum();
            self.record_repeat(&Repeat {
                wall_s: wall_s * self.factor,
                run_s: wall_s * self.factor,
                cycles,
            });
            reference.get_or_insert(fps);
            // A checkpoint of the first profile's four cells at their
            // warmup boundary after every sweep: the same cells every
            // time, so every run times the same images.
            self.calibrate();
            for (cell, _) in cells.iter().zip(&specs).filter(|(_, s)| s.benchmark == 0) {
                self.spans.next_run();
                if let Some((mut system, mut source, _, _)) = self.start(cell, None) {
                    self.checkpoint_at_warmup(cell, &mut system, &mut source);
                }
            }
            if !(self.s.wall.len() - 1).is_multiple_of(SWEEP_SETUP_EVERY) {
                continue;
            }
            // Set-up of all 36 systems.
            self.calibrate();
            let (mut build, mut prewarm) = (0.0, 0.0);
            for cell in &cells {
                self.spans.next_run();
                if let Some((_, _, build_s, prewarm_s)) = self.start(cell, None) {
                    build += build_s;
                    prewarm += prewarm_s;
                }
            }
            self.record_setup(build, prewarm);
        }
        parallel::set_jobs_override(None);

        let (true, Some(reference)) = (traced, reference) else {
            return;
        };
        // The sweep at jobs = min(2, nproc): the same reports as at one
        // job, and the wall time behind the parallel efficiency. The
        // `parallel` figures compare raw host times taken back to back.
        let jobs = env::nproc().min(2);
        self.s.jobs = jobs;
        parallel::set_jobs_override(Some(jobs));
        let mut walls = Vec::with_capacity(PARALLEL_SWEEPS);
        for _ in 0..PARALLEL_SWEEPS {
            self.spans.next_run();
            let (result, wall_s) = self
                .spans
                .time("parallel.run_cells", || run_cells(&profiles, scale, &specs));
            let Some(reports) = self.chk.ok("run_cells", result) else {
                break;
            };
            for ((cell, &fp), r) in cells.iter().zip(&reference).zip(&reports) {
                self.chk.same(
                    &format!("{} at jobs={jobs} against jobs=1", cell.label()),
                    fp,
                    r.fingerprint(),
                );
            }
            walls.push(wall_s);
        }
        parallel::set_jobs_override(None);
        self.s.parallel_wall = stats::median(&walls);
        // Each cell alone, outside `run_cells`: the per-cell times behind
        // the parallel efficiency, and the untraced side of the tracing
        // overhead.
        self.calibrate();
        let mut packets = Vec::with_capacity(cells.len());
        for (cell, &fp) in cells.iter().zip(&reference) {
            let Some(r) = self.run_cell(cell, None) else {
                packets.push(None);
                continue;
            };
            self.chk.same(
                &format!("{} alone against run_cells", cell.label()),
                fp,
                r.report.fingerprint(),
            );
            self.s.cell.push(r.wall_s);
            self.s.untraced_run_s += r.run_s * self.factor;
            packets.push(Some(r.report.network.packets_sent));
        }
        for ((cell, &fp), &n) in cells.iter().zip(&reference).zip(&packets) {
            let Some(n) = n else { continue };
            let Some(r) = self.run_cell(cell, Some(packet_trace(n))) else {
                continue;
            };
            self.chk.same(
                &format!("traced run of {}", cell.label()),
                fp,
                r.report.fingerprint(),
            );
            self.t.run_s += r.run_s;
            self.collect_trace(&r.system, &r.report);
            self.t.reports.push(r.report);
        }
        self.idle_tick(&cells[cells.len() - 1]);
    }

    /// `ckpt_roll_swim`: a repeat rolls each cell once, each followed by
    /// a set-up sample.
    fn ckpt_workload(&mut self, cells: &[Cell], traced: bool) {
        let mut references = Vec::with_capacity(cells.len());
        for cell in cells {
            let Some(plain) = self.run_cell(cell, None) else {
                return;
            };
            self.chk.note(cell.label(), plain.report.fingerprint());
            references.push(plain.report);
        }
        let deadline = self.deadline();
        'repeats: while deadline.more(self.s.wall.len()) {
            let mut repeat = Repeat::default();
            for (cell, reference) in cells.iter().zip(&references) {
                self.calibrate();
                let Some(r) = self.rolling(cell, reference, None) else {
                    break 'repeats;
                };
                repeat.add(r.wall_s, r.run_s, r.cycles);
                self.setup_sample(cell, false);
            }
            self.record_repeat(&repeat);
        }
        self.single_cell_parallel();
        if traced {
            self.calibrate();
            for (cell, reference) in cells.iter().zip(&references) {
                self.rolling(
                    cell,
                    reference,
                    Some(packet_trace(reference.network.packets_sent)),
                );
            }
            self.idle_tick(&cells[0]);
        }
    }

    /// One repeat of the rolling checkpoint: every `ckpt_every`
    /// transactions the run pauses, snapshots, and the image is resumed
    /// into a fresh system, snapshotted again and dropped. The last
    /// image is then resumed and finished. Returns its host times and
    /// cycles if it completed.
    fn rolling(&mut self, cell: &Cell, reference: &RunReport, obs: Option<Obs>) -> Option<Repeat> {
        let traced = obs.is_some();
        self.spans.next_run();
        let top = self.spans.enter("ckpt.roll");
        let Some((mut system, mut source, build_s, prewarm_s)) = self.start(cell, obs) else {
            self.spans.exit(top);
            return None;
        };
        source.on = traced;
        let mut run_s = 0.0;
        let mut stop = self.size.ckpt_every;
        let mut last = None;
        let report = loop {
            let span = self.spans.enter("core.run");
            let (calls, ns) = (source.calls, source.ns);
            let paused = system.run_until(&mut source, stop);
            run_s += self.spans.exit(span);
            if traced {
                self.spans.aggregate(
                    "workload.next_for",
                    span,
                    source.calls - calls,
                    source.ns - ns,
                );
            }
            match self.chk.ok(&format!("run {}", cell.label()), paused) {
                None => {
                    self.spans.exit(top);
                    return None;
                }
                Some(Some(report)) => break report,
                Some(None) => {}
            }
            let what = format!("{} at {stop} transactions", cell.label());
            match self.round_trip(&system, &source, &what) {
                Some((image, write_s, resume_s)) => {
                    if !traced {
                        self.record_checkpoint(&image, write_s, resume_s);
                    }
                    last = Some(image);
                }
                None => {
                    self.spans.exit(top);
                    return None;
                }
            }
            stop += self.size.ckpt_every;
        };
        self.chk.same(
            &format!("checkpointed run of {}", cell.label()),
            reference.fingerprint(),
            report.fingerprint(),
        );
        if let Some(image) = last {
            let (resumed, resume_s) = self.spans.time("snapshot.resume", || {
                SystemBuilder::resume_from(&image, Some(1))
            });
            if let Some(mut resumed) = self.chk.ok("resume last image", resumed) {
                if !traced {
                    self.s.resume.push(resume_s * self.factor);
                }
                let (finished, _) = self.spans.time("ckpt.finish", || resumed.finish());
                if let Some(fin) = self.chk.ok("finish last image", finished) {
                    self.chk.same(
                        &format!("resumed last image of {}", cell.label()),
                        reference.fingerprint(),
                        fin.fingerprint(),
                    );
                }
            }
        }
        let wall_s = self.spans.exit(top);
        let rolled = Repeat {
            wall_s: wall_s * self.factor,
            run_s: run_s * self.factor,
            cycles: report.cycles,
        };
        if traced {
            self.t.run_s += run_s;
            self.t.workload_calls += source.calls;
            self.t.workload_ns += source.ns;
            self.collect_trace(&system, &report);
            self.t.reports.push(report);
        } else {
            self.record_setup(build_s, prewarm_s);
        }
        Some(rolled)
    }

    fn end_to_end(&self) -> Vec<Metric> {
        let s = &self.s;
        let n = |v: &[f64]| format!("median of {} at reference host speed", v.len());
        let setup: Vec<f64> = s.build.iter().zip(&s.prewarm).map(|(b, p)| b + p).collect();
        vec![
            metric(
                "sim_cycles_per_s",
                stats::median(&s.cycles_per_s),
                "cycles/s",
                n(&s.cycles_per_s),
            ),
            metric(
                "wall_s",
                stats::median(&s.wall),
                "s",
                format!(
                    "{}; host probe median {:.3} ms of {}",
                    n(&s.wall),
                    stats::median(&s.probe) * 1e3,
                    s.probe.len()
                ),
            ),
            metric("setup_s", stats::median(&setup), "s", n(&setup)),
            metric("peak_rss_mib", env::peak_rss_mib(), "MiB", "VmHWM".into()),
            metric(
                "ckpt_write_ms",
                stats::median(&s.write) * 1e3,
                "ms",
                n(&s.write),
            ),
            metric(
                "resume_ms",
                stats::median(&s.resume) * 1e3,
                "ms",
                n(&s.resume),
            ),
        ]
    }

    fn per_layer(&self) -> Vec<Metric> {
        let s = &self.s;
        let t = &self.t;
        let sum = |f: fn(&RunReport) -> u64| t.reports.iter().map(f).sum::<u64>() as f64;
        let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
        let traced = format!("{} traced run(s)", t.reports.len());
        let cycles = sum(|r| r.cycles);
        let txns = sum(|r| r.counters.l2_transactions);
        let hits = sum(|r| r.counters.l2_hits);
        let hops = sum(|r| r.network.flit_hops);
        let workload_s = t.workload_ns as f64 * 1e-9;
        let tail_note = |tl: Tail| {
            format!(
                "p{} of {} samples, {} beyond",
                tl.percentile, tl.samples, tl.beyond
            )
        };
        let write_tail = stats::tail(&s.write);
        let resume_tail = stats::tail(&s.resume);
        let bytes = stats::median(&s.image_bytes);
        let cell_total: f64 = s.cell.iter().sum();
        vec![
            metric(
                "core.build_ms",
                stats::median(&s.build) * 1e3,
                "ms",
                format!("median of {}", s.build.len()),
            ),
            metric(
                "core.prewarm_ms",
                stats::median(&s.prewarm) * 1e3,
                "ms",
                format!("median of {}", s.prewarm.len()),
            ),
            metric("core.run_s", t.run_s, "s", traced.clone()),
            metric("core.self_s", t.run_s - workload_s, "s", traced.clone()),
            metric(
                "core.host_ns_per_cycle",
                ratio(1e9, stats::median(&s.cycles_per_s)),
                "ns/cycle",
                "1e9 / sim_cycles_per_s".into(),
            ),
            metric("core.cycles", cycles, "cycles", traced.clone()),
            metric("core.txns", txns, "count", traced.clone()),
            metric(
                "core.l2_hit_latency_cy",
                ratio(sum(|r| r.counters.hit_latency_sum), hits),
                "cycles",
                traced.clone(),
            ),
            metric(
                "core.phase.noc_hop_cy",
                ratio(sum(|r| r.counters.noc_hop_cycles), txns),
                "cy/txn",
                traced.clone(),
            ),
            metric(
                "core.phase.pillar_wait_cy",
                ratio(sum(|r| r.counters.pillar_wait_cycles), txns),
                "cy/txn",
                traced.clone(),
            ),
            metric(
                "core.phase.resource_queue_cy",
                ratio(sum(|r| r.counters.resource_queue_cycles), txns),
                "cy/txn",
                traced.clone(),
            ),
            metric(
                "core.phase.l2_service_cy",
                ratio(sum(|r| r.counters.l2_service_cycles), txns),
                "cy/txn",
                traced.clone(),
            ),
            metric(
                "core.phase.mem_wait_cy",
                ratio(sum(|r| r.counters.mem_wait_cycles), txns),
                "cy/txn",
                traced.clone(),
            ),
            metric(
                "workload.calls",
                t.workload_calls as f64,
                "count",
                traced.clone(),
            ),
            metric("workload.s", workload_s, "s", traced.clone()),
            metric(
                "workload.share",
                ratio(workload_s, t.run_s),
                "ratio",
                "of core.run_s".into(),
            ),
            metric(
                "noc.packets",
                sum(|r| r.network.packets_sent),
                "count",
                traced.clone(),
            ),
            metric("noc.flit_hops", hops, "count", traced.clone()),
            metric(
                "noc.switch_contention",
                sum(|r| r.network.switch_contention),
                "count",
                traced.clone(),
            ),
            metric(
                "noc.bus_transfers",
                sum(|r| r.bus_transfers),
                "count",
                traced.clone(),
            ),
            metric(
                "noc.bus_contention_cy",
                sum(|r| r.bus_contention_cycles),
                "cycles",
                traced.clone(),
            ),
            metric(
                "noc.avg_packet_latency_cy",
                ratio(
                    sum(|r| r.network.total_latency),
                    sum(|r| r.network.packets_delivered),
                ),
                "cycles",
                traced.clone(),
            ),
            metric(
                "noc.replay_s",
                t.replay_s,
                "s",
                "packets replayed into a standalone Network".into(),
            ),
            metric(
                "noc.replay_ns_per_flit_hop",
                ratio(t.replay_s * 1e9, t.replay_hops as f64),
                "ns/flit-hop",
                "replay".into(),
            ),
            metric(
                "noc.replay_share",
                ratio(t.replay_s, t.run_s),
                "ratio",
                "of core.run_s".into(),
            ),
            metric(
                "noc.replay_fidelity",
                if hops == 0.0 && t.replay_hops == 0 {
                    1.0
                } else {
                    ratio(t.replay_hops as f64, hops)
                },
                "ratio",
                "replayed / traced flit hops; via = nearest pillar of src".into(),
            ),
            metric(
                "noc.idle_tick_ns",
                t.idle_tick_ns,
                "ns",
                "median of 5 batches".into(),
            ),
            metric(
                "cache.l2_hit_ratio",
                ratio(hits, hits + sum(|r| r.counters.l2_misses)),
                "ratio",
                traced.clone(),
            ),
            metric(
                "cache.tag_accesses",
                sum(|r| r.counters.tag_accesses),
                "count",
                traced.clone(),
            ),
            metric(
                "cache.bank_accesses",
                sum(|r| r.counters.bank_accesses),
                "count",
                traced.clone(),
            ),
            metric(
                "cache.search_retry_ratio",
                ratio(sum(|r| r.counters.search_retries), txns),
                "ratio",
                "per transaction".into(),
            ),
            metric(
                "cache.migrations",
                sum(|r| r.counters.migrations),
                "count",
                traced.clone(),
            ),
            metric(
                "cache.migration_abort_ratio",
                ratio(
                    t.migrations_aborted as f64,
                    (t.migrations + t.migrations_aborted) as f64,
                ),
                "ratio",
                "aborted / started, whole run".into(),
            ),
            metric(
                "cache.evictions",
                sum(|r| r.counters.l2_evictions),
                "count",
                traced.clone(),
            ),
            metric(
                "cache.replicas_created",
                sum(|r| r.counters.replicas_created),
                "count",
                traced.clone(),
            ),
            metric(
                "coherence.invalidations",
                sum(|r| r.counters.invalidations),
                "count",
                traced.clone(),
            ),
            metric(
                "cpu.instructions",
                sum(|r| r.instructions),
                "count",
                traced.clone(),
            ),
            metric(
                "cpu.ipc",
                ratio(
                    sum(|r| r.instructions),
                    sum(|r| r.cycles * u64::from(r.num_cpus)),
                ),
                "instr/cycle",
                "per core".into(),
            ),
            metric(
                "obs.trace_overhead_ratio",
                ratio(t.run_s * self.factor, s.untraced_run_s),
                "ratio",
                "traced / untraced run, both at reference host speed".into(),
            ),
            metric("obs.events", t.events as f64, "count", traced.clone()),
            metric("obs.dropped_events", t.dropped as f64, "count", traced),
            metric(
                "snapshot.bytes",
                bytes,
                "B",
                format!("median of {}", s.image_bytes.len()),
            ),
            metric(
                "snapshot.count",
                s.image_bytes.len() as f64,
                "count",
                "untraced".into(),
            ),
            metric(
                "snapshot.write_mb_per_s",
                ratio(bytes * 1e-6, stats::median(&s.write)),
                "MB/s",
                "median image / median write".into(),
            ),
            metric(
                "snapshot.write_ms_tail",
                write_tail.value * 1e3,
                "ms",
                tail_note(write_tail),
            ),
            metric(
                "snapshot.resume_ms_tail",
                resume_tail.value * 1e3,
                "ms",
                tail_note(resume_tail),
            ),
            metric("parallel.jobs", s.jobs as f64, "count", String::new()),
            metric(
                "parallel.cell_s_p50",
                stats::median(&s.cell),
                "s",
                format!("{} cells at jobs=1", s.cell.len()),
            ),
            metric(
                "parallel.cell_s_max",
                stats::max(&s.cell),
                "s",
                format!("{} cells at jobs=1", s.cell.len()),
            ),
            metric(
                "parallel.efficiency",
                ratio(cell_total, s.jobs as f64 * s.parallel_wall),
                "ratio",
                "sum of cell seconds / (jobs x wall of the sweep at that many jobs)".into(),
            ),
            metric(
                "fail_ratio",
                self.chk.fail_ratio(),
                "ratio",
                format!(
                    "{} of {} operations failed",
                    self.chk.failed, self.chk.attempted
                ),
            ),
        ]
    }
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: String) -> Metric {
    Metric {
        name,
        value,
        unit,
        note,
    }
}

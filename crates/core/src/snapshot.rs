//! Whole-simulator snapshot/resume.
//!
//! A snapshot is the versioned, serializable state tree of a run in
//! flight: six tagged sections behind the global
//! [`nim_types::codec`] header, each carrying one layer of the
//! simulator through its [`Checkpoint`] seam.
//!
//! | tag    | contents                                                    |
//! |--------|-------------------------------------------------------------|
//! | `CFG ` | the build recipe: scheme, fabric, knobs, full config        |
//! | `OBS ` | observability: sampler rows, metrics registry, epoch arm    |
//! | `WKLD` | workload position: benchmark name + [`TraceCursor`]         |
//! | `PROG` | the run loop's carried bookkeeping ([`RunProgress`])        |
//! | `ENGN` | protocol engine: counters, L2, directory, cores, txn table  |
//! | `FABR` | simulation fabric: NoC, event heaps, timing models          |
//!
//! Snapshots are legal only at *epoch boundaries*: when sampling is on,
//! the clock must sit exactly on a cycle where a sample row was
//! recorded (pause with [`System::run_until`], which ticks on to the
//! next boundary once the stop count is reached). At such a cycle every
//! in-flight structure is in the same state the uninterrupted loop
//! holds, so resuming the snapshot replays the remainder of the run
//! bit-identically.
//!
//! Restores always run against a *freshly built* system: the `CFG `
//! section records the exact build recipe, [`SystemBuilder::resume`]
//! rebuilds the topology and geometry from it, and the remaining
//! sections restore only live state into that scaffold. The network
//! serializes per-node logical state, never its flit arena's slot
//! layout.

use std::path::Path;

use nim_obs::{CategoryMask, LatencyHistogram, Metric, Obs, ObsConfig, SampleRow};
use nim_types::codec::{ByteReader, ByteWriter, Checkpoint, CodecError};
use nim_types::{
    CpuId, L1Config, L2Config, LineAddr, NetworkConfig, PillarPlacement, SystemConfig,
};
use nim_workload::{BenchmarkProfile, GeneratorCursor, TraceCursor, TraceGenerator, TraceSource};

use crate::error::{RunError, SnapshotError};
use crate::fabric::FabricKind;
use crate::report::{Counters, RunReport};
use crate::scheme::Scheme;
use crate::system::{RunProgress, System};
use crate::SystemBuilder;

/// Section tags, all 4 bytes so the encoded layout stays self-evident
/// in a hex dump.
const SEC_CFG: &str = "CFG ";
const SEC_OBS: &str = "OBS ";
const SEC_WKLD: &str = "WKLD";
const SEC_PROG: &str = "PROG";
const SEC_ENGN: &str = "ENGN";
const SEC_FABR: &str = "FABR";

/// Per-section versions, bumped independently when a section's encoding
/// changes (the global header version gates wholesale format breaks).
const V_CFG: u16 = 1;
const V_OBS: u16 = 1;
const V_WKLD: u16 = 1;
const V_PROG: u16 = 1;
const V_ENGN: u16 = 1;
const V_FABR: u16 = 1;

impl System {
    /// Serializes the entire simulator mid-run into a snapshot.
    ///
    /// `source` is the trace source driving the run; its
    /// [`TraceSource::cursor`] is recorded so the resumed run draws the
    /// exact same reference stream suffix.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::NoRunInProgress`] if no run has been begun, and
    /// [`SnapshotError::NotEpochBoundary`] if the clock does not sit on
    /// a legal snapshot cycle — pause with [`System::run_until`], which
    /// stops only at legal boundaries.
    pub fn snapshot(&self, source: &dyn TraceSource) -> Result<Vec<u8>, SnapshotError> {
        let progress = self
            .progress
            .as_ref()
            .ok_or(SnapshotError::NoRunInProgress)?;
        let now = self.fabric.net.now().0;
        if self.obs.sample_every() != 0 && self.obs.last_sample_cycle() != Some(now) {
            return Err(SnapshotError::NotEpochBoundary { cycle: now });
        }
        let mut w = ByteWriter::new();
        w.header();
        self.save_cfg(&mut w);
        self.save_obs(&mut w);
        save_wkld(&mut w, &progress.benchmark, &source.cursor());
        save_prog(&mut w, progress);
        self.save_engine(&mut w);
        let h = w.begin_section(SEC_FABR, V_FABR);
        self.fabric.save(&mut w);
        w.end_section(h);
        Ok(w.into_bytes())
    }

    /// [`System::snapshot`] straight to a file.
    ///
    /// # Errors
    ///
    /// Everything [`System::snapshot`] returns, plus
    /// [`SnapshotError::Io`] if the write fails.
    pub fn snapshot_to(
        &self,
        path: impl AsRef<Path>,
        source: &dyn TraceSource,
    ) -> Result<(), SnapshotError> {
        let bytes = self.snapshot(source)?;
        std::fs::write(path, bytes)?;
        Ok(())
    }

    /// The build recipe: everything `SystemBuilder` needs to reproduce
    /// this exact system before live state is restored into it.
    fn save_cfg(&self, w: &mut ByteWriter) {
        let h = w.begin_section(SEC_CFG, V_CFG);
        w.u8(index_of(&Scheme::ALL, &self.scheme));
        w.u8(index_of(&FabricKind::ALL, &self.knobs.fabric));
        w.bool(self.knobs.vicinity_stop);
        w.bool(self.knobs.replication);
        w.bool(self.knobs.edge_memory);
        w.bool(self.prewarm);
        w.u64(self.seed);
        w.u64(self.warmup);
        w.u64(self.sample);
        let cfg = &self.cfg;
        w.u32(cfg.num_cpus);
        w.u32(cfg.issue_width);
        w.u32(cfg.l1.bytes);
        w.u32(cfg.l1.ways);
        w.u32(cfg.l1.line_bytes);
        w.u32(cfg.l1.latency);
        w.bool(cfg.l1.write_through);
        w.u32(cfg.l2.clusters);
        w.u32(cfg.l2.banks_per_cluster);
        w.u32(cfg.l2.bank_bytes);
        w.u32(cfg.l2.ways);
        w.u32(cfg.l2.line_bytes);
        w.u32(cfg.l2.bank_latency);
        w.u32(cfg.l2.tag_latency);
        w.u32(cfg.memory_latency);
        w.u16(cfg.memory_controllers);
        w.u32(cfg.memory_interval);
        let net = &cfg.network;
        w.u8(net.layers);
        w.u16(net.pillars);
        w.u8(index_of(&PillarPlacement::ALL, &net.pillar_placement));
        w.u32(net.flit_bits);
        w.u32(net.bus_width_bits);
        w.u32(net.data_packet_flits);
        w.u32(net.control_packet_flits);
        w.u32(net.router_latency);
        w.u32(net.vcs_per_port);
        w.u32(net.vc_depth_flits);
        w.end_section(h);
    }

    /// Observability state: the handle's configuration, the armed epoch
    /// boundary, every sample row, and the metrics registry (which
    /// carries the cumulative hit/miss matrices). The bounded trace
    /// ring is deliberately *not* serialized: a resumed run's ring
    /// holds exactly the trace suffix from the snapshot cycle onward,
    /// comparable via [`Obs::trace_digest_from`].
    fn save_obs(&self, w: &mut ByteWriter) {
        let h = w.begin_section(SEC_OBS, V_OBS);
        match self.obs.config() {
            None => w.u8(0),
            Some(cfg) => {
                w.u8(1);
                w.bool(cfg.trace);
                w.usize(cfg.trace_capacity);
                w.u16(cfg.mask.bits());
                w.u64(cfg.sample_every);
                w.u64(cfg.txn_sample);
                w.u64(self.obs.next_sample_at().unwrap_or(0));
                let (columns, rows) = self.obs.sampler_state().unwrap_or_default();
                w.u32(columns.len() as u32);
                for c in &columns {
                    w.str(c);
                }
                w.u32(rows.len() as u32);
                for row in &rows {
                    w.u64(row.cycle);
                    w.f64(row.wall_secs);
                    w.u32(row.values.len() as u32);
                    for v in &row.values {
                        w.f64(*v);
                    }
                }
                let metrics = self.obs.metrics_state().unwrap_or_default();
                w.u32(metrics.len() as u32);
                for (name, metric) in &metrics {
                    w.str(name);
                    match metric {
                        Metric::Counter(v) => {
                            w.u8(0);
                            w.u64(*v);
                        }
                        Metric::Gauge(v) => {
                            w.u8(1);
                            w.f64(*v);
                        }
                        Metric::Histogram(hist) => {
                            w.u8(2);
                            for b in hist.buckets() {
                                w.u64(*b);
                            }
                        }
                    }
                }
            }
        }
        w.end_section(h);
    }

    /// Engine live state. Geometry (layout, seats, plans, policy) is
    /// rebuilt from `CFG `; only what the run mutated is carried.
    fn save_engine(&self, w: &mut ByteWriter) {
        let h = w.begin_section(SEC_ENGN, V_ENGN);
        let e = &self.engine;
        e.counters.save(w);
        e.l2.save(w);
        e.dir.save(w);
        w.u32(e.cores.len() as u32);
        for core in &e.cores {
            core.save(w);
        }
        e.txns.save(w);
        let mut last: Vec<(u64, u16)> = e
            .last_accessor
            .iter()
            .map(|(line, cpu)| (line.0, cpu.0))
            .collect();
        last.sort_unstable();
        w.u32(last.len() as u32);
        for (line, cpu) in &last {
            w.u64(*line);
            w.u16(*cpu);
        }
        w.end_section(h);
    }
}

fn save_wkld(w: &mut ByteWriter, benchmark: &str, cursor: &TraceCursor) {
    let h = w.begin_section(SEC_WKLD, V_WKLD);
    w.str(benchmark);
    match cursor {
        TraceCursor::None => w.u8(0),
        TraceCursor::Generator(c) => {
            w.u8(1);
            w.u64(c.rotation);
            w.u64(c.ops_until_rotate);
            w.u64_slice(&c.thread_ops);
        }
        TraceCursor::Replay(consumed) => {
            w.u8(2);
            w.u64_slice(consumed);
        }
    }
    w.end_section(h);
}

fn save_prog(w: &mut ByteWriter, p: &RunProgress) {
    let h = w.begin_section(SEC_PROG, V_PROG);
    w.bool(p.warmed);
    match &p.window_start {
        None => w.u8(0),
        Some((counters, cycle, instr)) => {
            w.u8(1);
            counters.save(w);
            w.u64(*cycle);
            w.u64(*instr);
        }
    }
    w.u64(p.last_progress);
    w.u64(p.last_count);
    w.end_section(h);
}

/// The position of `v` in `all` — the stable codec tag for enums that
/// expose an `ALL` array instead of explicit discriminants.
fn index_of<T: PartialEq>(all: &[T], v: &T) -> u8 {
    all.iter().position(|x| x == v).expect("variant in ALL") as u8
}

/// Reads `v` back from its [`index_of`] tag.
fn from_index<T: Copy>(all: &[T], idx: u8, what: &'static str) -> Result<T, CodecError> {
    all.get(idx as usize)
        .copied()
        .ok_or(CodecError::Corrupt(what))
}

/// A run reconstructed mid-flight from a snapshot: the rebuilt+restored
/// [`System`] plus the workload position needed to keep drawing the
/// same reference stream.
///
/// Runs driven by the synthetic [`TraceGenerator`] carry their
/// reconstructed generator and can be driven directly with
/// [`ResumedRun::finish`] / [`ResumedRun::run_until`]. Runs driven by a
/// replay trace carry only the per-CPU consumed counts
/// ([`ResumedRun::replay_cursor`]) — reload the trace, fast-forward it,
/// and drive with [`ResumedRun::finish_with`].
#[derive(Debug)]
pub struct ResumedRun {
    system: System,
    generator: Option<TraceGenerator>,
    replay: Option<Vec<u64>>,
    benchmark: String,
}

impl ResumedRun {
    /// The benchmark name the snapshot recorded.
    pub fn benchmark(&self) -> &str {
        &self.benchmark
    }

    /// The restored system (snapshot-legal and mid-run).
    pub fn system(&self) -> &System {
        &self.system
    }

    /// Per-CPU consumed counts for a replay-trace run (`None` for
    /// generator-driven runs) — feed to
    /// [`ReplayTrace::fast_forward`](nim_workload::ReplayTrace::fast_forward).
    pub fn replay_cursor(&self) -> Option<&[u64]> {
        self.replay.as_deref()
    }

    /// Drives the resumed run to completion with its own generator.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Stalled`] exactly like [`System::run`].
    ///
    /// # Panics
    ///
    /// Panics if the snapshot was not generator-driven (use
    /// [`ResumedRun::finish_with`]).
    pub fn finish(&mut self) -> Result<RunReport, RunError> {
        let gen = self
            .generator
            .as_mut()
            .expect("resumed run has no generator; drive it with finish_with");
        match self.system.advance(gen, None) {
            Ok(_) => Ok(self.system.finish_report()),
            Err(e) => {
                self.system.progress = None;
                Err(e)
            }
        }
    }

    /// Drives the resumed run with its own generator until at least
    /// `stop_after` transactions have completed and the clock sits on
    /// the next epoch boundary — see [`System::run_until`].
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Stalled`] exactly like [`System::run`].
    ///
    /// # Panics
    ///
    /// Panics if the snapshot was not generator-driven.
    pub fn run_until(&mut self, stop_after: u64) -> Result<Option<RunReport>, RunError> {
        let gen = self
            .generator
            .as_mut()
            .expect("resumed run has no generator; drive it with finish_with");
        self.system.run_until(gen, stop_after)
    }

    /// Re-snapshots the resumed run (legal whenever the underlying
    /// [`System::snapshot`] is).
    ///
    /// # Errors
    ///
    /// Everything [`System::snapshot`] returns.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot was not generator-driven.
    pub fn snapshot(&self) -> Result<Vec<u8>, SnapshotError> {
        let gen = self
            .generator
            .as_ref()
            .expect("resumed run has no generator; snapshot via System::snapshot");
        self.system.snapshot(gen)
    }

    /// Drives the resumed run to completion with a caller-supplied
    /// source (the replay-trace path: reload, fast-forward to
    /// [`ResumedRun::replay_cursor`], then call this).
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Stalled`] exactly like [`System::run`].
    pub fn finish_with(&mut self, source: &mut dyn TraceSource) -> Result<RunReport, RunError> {
        match self.system.advance(source, None) {
            Ok(_) => Ok(self.system.finish_report()),
            Err(e) => {
                self.system.progress = None;
                Err(e)
            }
        }
    }
}

impl SystemBuilder {
    /// Reconstructs a run mid-flight from a snapshot file.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] if the file cannot be read, plus
    /// everything [`SystemBuilder::resume_from`] returns.
    pub fn resume(path: impl AsRef<Path>) -> Result<ResumedRun, SnapshotError> {
        let bytes = std::fs::read(path)?;
        Self::resume_from(&bytes, None)
    }

    /// Reconstructs a run mid-flight from snapshot bytes: rebuilds the
    /// system from the recorded recipe, restores every layer's live
    /// state, and re-positions the workload source.
    ///
    /// The `Option<usize>` is ignored: it was a shard count, and the
    /// parameter exists only for the frozen `perfbench/` benchmark,
    /// which still passes `Some(1)`. It goes in the next benchmark
    /// change.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Codec`] for truncated/corrupt/version-skewed
    /// bytes, [`SnapshotError::Build`] if the recorded configuration no
    /// longer builds, [`SnapshotError::UnknownBenchmark`] if this
    /// binary does not know the recorded benchmark.
    pub fn resume_from(bytes: &[u8], _shards: Option<usize>) -> Result<ResumedRun, SnapshotError> {
        let mut r = ByteReader::new(bytes);
        r.header()?;
        let recipe = read_cfg(&mut r)?;
        let obs_state = read_obs(&mut r)?;
        let (benchmark, cursor) = read_wkld(&mut r)?;
        let progress = read_prog(&mut r, benchmark.clone())?;

        let profile = profile_by_name(&benchmark)?;
        let obs = match &obs_state {
            None => Obs::disabled(),
            Some(s) => Obs::new(s.config.clone()),
        };
        let mut system = SystemBuilder::new(recipe.scheme)
            .config(recipe.cfg)
            .seed(recipe.seed)
            .warmup_transactions(recipe.warmup)
            .sampled_transactions(recipe.sample)
            .prewarm(recipe.prewarm)
            .vicinity_stop(recipe.vicinity_stop)
            .replication(recipe.replication)
            .edge_memory_controllers(recipe.edge_memory)
            .fabric(recipe.fabric)
            .observability(obs.clone())
            .build()?;

        read_engine(&mut r, &mut system)?;
        let mut sec = r.section(SEC_FABR, V_FABR)?;
        system.fabric.restore(&mut sec.reader)?;
        sec.finish()?;
        if r.remaining() != 0 {
            return Err(CodecError::Corrupt("snapshot has trailing bytes").into());
        }

        if let Some(s) = obs_state {
            obs.restore_sampler_state(s.columns, s.rows, s.next_sample);
            obs.restore_metrics_state(s.metrics);
        }
        obs.set_now(system.fabric.net.now().0);
        system.progress = Some(progress);

        let (generator, replay) = match cursor {
            TraceCursor::None => (None, None),
            TraceCursor::Generator(c) => {
                let gen = TraceGenerator::at_cursor(&profile, recipe.cfg.num_cpus, recipe.seed, &c)
                    .ok_or(CodecError::Corrupt("generator cursor shape mismatch"))?;
                (Some(gen), None)
            }
            TraceCursor::Replay(consumed) => (None, Some(consumed)),
        };
        Ok(ResumedRun {
            system,
            generator,
            replay,
            benchmark,
        })
    }
}

/// Looks up `name` among the paper's Table 5 profiles plus the
/// synthetic test profile.
fn profile_by_name(name: &str) -> Result<BenchmarkProfile, SnapshotError> {
    if name == "synthetic" {
        return Ok(BenchmarkProfile::synthetic());
    }
    BenchmarkProfile::by_name(name).ok_or_else(|| SnapshotError::UnknownBenchmark(name.to_string()))
}

/// The decoded `CFG ` section.
struct Recipe {
    scheme: Scheme,
    fabric: FabricKind,
    vicinity_stop: bool,
    replication: bool,
    edge_memory: bool,
    prewarm: bool,
    seed: u64,
    warmup: u64,
    sample: u64,
    cfg: SystemConfig,
}

fn read_cfg(r: &mut ByteReader<'_>) -> Result<Recipe, CodecError> {
    let mut sec = r.section(SEC_CFG, V_CFG)?;
    let r = &mut sec.reader;
    let scheme = from_index(&Scheme::ALL, r.u8()?, "bad scheme tag")?;
    let fabric = from_index(&FabricKind::ALL, r.u8()?, "bad fabric tag")?;
    let vicinity_stop = r.bool()?;
    let replication = r.bool()?;
    let edge_memory = r.bool()?;
    let prewarm = r.bool()?;
    let seed = r.u64()?;
    let warmup = r.u64()?;
    let sample = r.u64()?;
    let cfg = SystemConfig {
        num_cpus: r.u32()?,
        issue_width: r.u32()?,
        l1: L1Config {
            bytes: r.u32()?,
            ways: r.u32()?,
            line_bytes: r.u32()?,
            latency: r.u32()?,
            write_through: r.bool()?,
        },
        l2: L2Config {
            clusters: r.u32()?,
            banks_per_cluster: r.u32()?,
            bank_bytes: r.u32()?,
            ways: r.u32()?,
            line_bytes: r.u32()?,
            bank_latency: r.u32()?,
            tag_latency: r.u32()?,
        },
        memory_latency: r.u32()?,
        memory_controllers: r.u16()?,
        memory_interval: r.u32()?,
        network: NetworkConfig {
            layers: r.u8()?,
            pillars: r.u16()?,
            pillar_placement: from_index(&PillarPlacement::ALL, r.u8()?, "bad placement tag")?,
            flit_bits: r.u32()?,
            bus_width_bits: r.u32()?,
            data_packet_flits: r.u32()?,
            control_packet_flits: r.u32()?,
            router_latency: r.u32()?,
            vcs_per_port: r.u32()?,
            vc_depth_flits: r.u32()?,
        },
    };
    sec.finish()?;
    Ok(Recipe {
        scheme,
        fabric,
        vicinity_stop,
        replication,
        edge_memory,
        prewarm,
        seed,
        warmup,
        sample,
        cfg,
    })
}

/// The decoded `OBS ` section (for an enabled handle).
struct ObsState {
    config: ObsConfig,
    next_sample: u64,
    columns: Vec<String>,
    rows: Vec<SampleRow>,
    metrics: Vec<(String, Metric)>,
}

fn read_obs(r: &mut ByteReader<'_>) -> Result<Option<ObsState>, CodecError> {
    let mut sec = r.section(SEC_OBS, V_OBS)?;
    let r = &mut sec.reader;
    let state = match r.u8()? {
        0 => None,
        1 => {
            let config = ObsConfig {
                trace: r.bool()?,
                trace_capacity: r.usize()?,
                mask: CategoryMask::from_bits(r.u16()?),
                sample_every: r.u64()?,
                txn_sample: r.u64()?,
            };
            let next_sample = r.u64()?;
            let mut columns = Vec::new();
            for _ in 0..r.u32()? {
                columns.push(r.str()?);
            }
            let mut rows = Vec::new();
            for _ in 0..r.u32()? {
                let cycle = r.u64()?;
                let wall_secs = r.f64()?;
                let mut values = Vec::new();
                for _ in 0..r.u32()? {
                    values.push(r.f64()?);
                }
                rows.push(SampleRow {
                    cycle,
                    wall_secs,
                    values,
                });
            }
            let mut metrics = Vec::new();
            for _ in 0..r.u32()? {
                let name = r.str()?;
                let metric = match r.u8()? {
                    0 => Metric::Counter(r.u64()?),
                    1 => Metric::Gauge(r.f64()?),
                    2 => {
                        let mut buckets = [0u64; 16];
                        for b in &mut buckets {
                            *b = r.u64()?;
                        }
                        Metric::Histogram(LatencyHistogram::from_buckets(buckets))
                    }
                    _ => return Err(CodecError::Corrupt("bad metric tag")),
                };
                metrics.push((name, metric));
            }
            Some(ObsState {
                config,
                next_sample,
                columns,
                rows,
                metrics,
            })
        }
        _ => return Err(CodecError::Corrupt("bad obs tag")),
    };
    sec.finish()?;
    Ok(state)
}

fn read_wkld(r: &mut ByteReader<'_>) -> Result<(String, TraceCursor), CodecError> {
    let mut sec = r.section(SEC_WKLD, V_WKLD)?;
    let r = &mut sec.reader;
    let benchmark = r.str()?;
    let cursor = match r.u8()? {
        0 => TraceCursor::None,
        1 => TraceCursor::Generator(GeneratorCursor {
            rotation: r.u64()?,
            ops_until_rotate: r.u64()?,
            thread_ops: r.u64_vec()?,
        }),
        2 => TraceCursor::Replay(r.u64_vec()?),
        _ => return Err(CodecError::Corrupt("bad cursor tag")),
    };
    sec.finish()?;
    Ok((benchmark, cursor))
}

fn read_prog(r: &mut ByteReader<'_>, benchmark: String) -> Result<RunProgress, CodecError> {
    let mut sec = r.section(SEC_PROG, V_PROG)?;
    let r = &mut sec.reader;
    let warmed = r.bool()?;
    let window_start = match r.u8()? {
        0 => None,
        1 => {
            let mut counters = Counters::default();
            counters.restore(r)?;
            Some((counters, r.u64()?, r.u64()?))
        }
        _ => return Err(CodecError::Corrupt("bad window tag")),
    };
    let last_progress = r.u64()?;
    let last_count = r.u64()?;
    sec.finish()?;
    Ok(RunProgress {
        benchmark,
        warmed,
        window_start,
        last_progress,
        last_count,
    })
}

fn read_engine(r: &mut ByteReader<'_>, system: &mut System) -> Result<(), CodecError> {
    let mut sec = r.section(SEC_ENGN, V_ENGN)?;
    let r = &mut sec.reader;
    let e = &mut system.engine;
    e.counters.restore(r)?;
    e.l2.restore(r)?;
    e.dir.restore(r)?;
    let cores = r.u32()? as usize;
    if cores != e.cores.len() {
        return Err(CodecError::Corrupt("core count mismatch"));
    }
    for core in &mut e.cores {
        core.restore(r)?;
    }
    e.txns.restore(r)?;
    e.last_accessor.clear();
    for _ in 0..r.u32()? {
        let line = LineAddr(r.u64()?);
        let cpu = CpuId(r.u16()?);
        e.last_accessor.insert(line, cpu);
    }
    sec.finish()
}

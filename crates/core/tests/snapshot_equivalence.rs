//! Snapshot at an epoch boundary + resume must be **byte-identical** to
//! the uninterrupted run — same report fingerprint, same hit-matrix
//! metrics, same sample rows, same trace suffix — for every scheme,
//! topology, and fabric.
//!
//! Any simulator field missed by a `Checkpoint` impl shows up here as a
//! fingerprint divergence, which is exactly what forces the state tree
//! to stay complete as the simulator grows.

use nim_core::experiments::{run_cells, ExperimentScale, SweepSpec};
use nim_core::{FabricKind, Scheme, SnapshotError, System, SystemBuilder};
use nim_obs::{Metric, Obs, ObsConfig};
use nim_workload::{BenchmarkProfile, TraceGenerator};

const SEED: u64 = 7;
const WARMUP: u64 = 60;
const SAMPLE: u64 = 540;
const SAMPLE_EVERY: u64 = 400;
/// Transactions completed before the snapshot is taken (mid-run, after
/// warmup so the measurement window is already open).
const STOP_AT: u64 = 300;

/// One cell of the equivalence matrix.
#[derive(Clone, Copy, Debug)]
struct Cell {
    scheme: Scheme,
    layers: u8,
    fabric: FabricKind,
}

impl Cell {
    fn new(scheme: Scheme, layers: u8, fabric: FabricKind) -> Self {
        Self {
            scheme,
            layers,
            fabric,
        }
    }

    fn label(&self) -> String {
        format!(
            "{} layers={} fabric={}",
            self.scheme.label(),
            self.layers,
            self.fabric.name()
        )
    }

    fn build(&self) -> System {
        let obs = Obs::new(ObsConfig {
            trace: true,
            trace_capacity: 1 << 16,
            sample_every: SAMPLE_EVERY,
            ..ObsConfig::default()
        });
        SystemBuilder::new(self.scheme)
            .layers(self.layers)
            .fabric(self.fabric)
            .seed(SEED)
            .warmup_transactions(WARMUP)
            .sampled_transactions(SAMPLE)
            .observability(obs)
            .build()
            .expect("cell builds")
    }
}

/// Everything the equivalence bar compares, captured from one finished
/// run. Wall-clock fields (`SampleRow::wall_secs`, `sim/cycles_per_sec`)
/// are excluded: they measure host speed, not simulated behavior.
#[derive(Debug, PartialEq)]
struct Observed {
    fingerprint: u64,
    /// `(cycle, values)` of every sampler row.
    sample_rows: Vec<(u64, Vec<f64>)>,
    /// Deterministic metrics, including the `l2/hits/{local}/{serve}`
    /// and `l2/miss_from/{local}` hit-matrix counters.
    metrics: Vec<(String, Metric)>,
    /// Digest of all trace events from the snapshot cycle onward.
    trace_suffix: u64,
}

fn observe(system: &System, fingerprint: u64, suffix_from: u64) -> Observed {
    let obs = system.obs();
    let (_, rows) = obs.sampler_state().expect("obs enabled");
    let metrics = obs
        .metrics_state()
        .expect("obs enabled")
        .into_iter()
        .filter(|(name, _)| !name.starts_with("sim/"))
        .collect();
    Observed {
        fingerprint,
        sample_rows: rows.into_iter().map(|r| (r.cycle, r.values)).collect(),
        metrics,
        trace_suffix: obs.trace_digest_from(suffix_from),
    }
}

/// Runs `cell` twice — uninterrupted, and snapshot-at-`STOP_AT` +
/// resume — and asserts the two halves observed the same simulation.
fn assert_cell_equivalence(cell: Cell) {
    // Interrupted half first: it discovers the snapshot cycle that the
    // trace-suffix comparison anchors on.
    let mut system = cell.build();
    let profile = BenchmarkProfile::synthetic();
    let mut gen = system.begin(&profile);
    let paused = system
        .run_until(&mut gen, STOP_AT)
        .expect("run reaches the stop");
    assert!(
        paused.is_none(),
        "{}: run must pause, not finish",
        cell.label()
    );
    let snap_cycle = system.network().now().0;
    let bytes = system.snapshot(&gen).expect("snapshot at epoch boundary");
    // The trace ring is deliberately not serialized: the resumed ring
    // holds events strictly *after* the boundary (events stamped at the
    // boundary cycle itself — e.g. the stop transaction completing —
    // were emitted before the pause), so the suffix comparison anchors
    // one cycle past it.
    let suffix_from = snap_cycle + 1;

    let mut resumed = SystemBuilder::resume_from(&bytes, None).expect("snapshot resumes");
    assert_eq!(resumed.benchmark(), profile.name);
    let report = resumed.finish().expect("resumed run finishes");
    let interrupted = observe(resumed.system(), report.fingerprint(), suffix_from);

    // Uninterrupted half.
    let mut cold = cell.build();
    let cold_report = cold.run(&profile).expect("cold run finishes");
    let uninterrupted = observe(&cold, cold_report.fingerprint(), suffix_from);

    assert_eq!(
        format!("{cold_report:?}"),
        format!("{report:?}"),
        "{}: reports diverge",
        cell.label()
    );
    assert_eq!(
        uninterrupted,
        interrupted,
        "{}: snapshot+resume diverges from the uninterrupted run",
        cell.label()
    );
}

#[test]
fn snapshot_resume_is_bit_identical_across_topologies_and_fabrics() {
    let cells = [
        // All four schemes at the paper's default topology.
        Cell::new(Scheme::CmpDnuca, 2, FabricKind::Sim),
        Cell::new(Scheme::CmpDnuca2d, 2, FabricKind::Sim),
        Cell::new(Scheme::CmpSnuca3d, 2, FabricKind::Sim),
        Cell::new(Scheme::CmpDnuca3d, 2, FabricKind::Sim),
        // Taller stacks.
        Cell::new(Scheme::CmpSnuca3d, 4, FabricKind::Sim),
        Cell::new(Scheme::CmpDnuca3d, 4, FabricKind::Sim),
        Cell::new(Scheme::CmpSnuca3d, 8, FabricKind::Sim),
        Cell::new(Scheme::CmpDnuca3d, 8, FabricKind::Sim),
        // Modeled fabrics.
        Cell::new(Scheme::CmpDnuca3d, 2, FabricKind::LatencyTable),
        Cell::new(Scheme::CmpSnuca3d, 4, FabricKind::Ideal),
    ];
    for cell in cells {
        assert_cell_equivalence(cell);
    }
}

#[test]
fn resumed_runs_can_pause_and_snapshot_again() {
    let cell = Cell::new(Scheme::CmpDnuca3d, 2, FabricKind::Sim);
    let mut system = cell.build();
    let profile = BenchmarkProfile::synthetic();
    let mut gen = system.begin(&profile);
    assert!(system.run_until(&mut gen, 150).expect("pauses").is_none());
    let first = system.snapshot(&gen).expect("first snapshot");

    // Chain: resume, advance further, snapshot again, resume again.
    let mut resumed = SystemBuilder::resume_from(&first, None).expect("resumes");
    assert!(resumed.run_until(STOP_AT).expect("pauses again").is_none());
    let second = resumed.snapshot().expect("second snapshot");
    let mut chained = SystemBuilder::resume_from(&second, None).expect("resumes again");
    let report = chained.finish().expect("finishes");

    let mut cold = cell.build();
    let cold_report = cold.run(&profile).expect("cold run");
    assert_eq!(cold_report.fingerprint(), report.fingerprint());
}

#[test]
fn warmup_forked_cells_match_cold_started_cells() {
    let benchmarks = [BenchmarkProfile::synthetic()];
    let scale = ExperimentScale {
        seed: 42,
        warmup: 150,
        sample: 450,
    };
    // One lone cell runs cold; three identical cells warmup-fork from a
    // shared image.
    let lone = [SweepSpec::new(Scheme::CmpDnuca3d, 0)];
    let cold = run_cells(&benchmarks, scale, &lone).expect("cold cell runs");
    let trio = [
        SweepSpec::new(Scheme::CmpDnuca3d, 0),
        SweepSpec::new(Scheme::CmpDnuca3d, 0),
        SweepSpec::new(Scheme::CmpDnuca3d, 0),
    ];
    let forked = run_cells(&benchmarks, scale, &trio).expect("forked cells run");
    assert_eq!(forked.len(), 3);
    for report in &forked {
        assert_eq!(
            report.fingerprint(),
            cold[0].fingerprint(),
            "forked cell diverges from cold start"
        );
    }
}

// ---------------------------------------------------------------------------
// Malformed snapshots must come back as typed errors, never panics.
// ---------------------------------------------------------------------------

fn valid_snapshot() -> Vec<u8> {
    let mut system = Cell::new(Scheme::CmpDnuca3d, 2, FabricKind::Sim).build();
    let mut gen = system.begin(&BenchmarkProfile::synthetic());
    assert!(system
        .run_until(&mut gen, STOP_AT)
        .expect("pauses")
        .is_none());
    system.snapshot(&gen).expect("snapshot")
}

#[test]
fn truncated_snapshots_fail_with_a_typed_error() {
    let bytes = valid_snapshot();
    for len in [
        0,
        1,
        7,
        9,
        bytes.len() / 4,
        bytes.len() / 2,
        bytes.len() - 1,
    ] {
        match SystemBuilder::resume_from(&bytes[..len], None) {
            Err(SnapshotError::Codec(_)) => {}
            other => panic!("truncation at {len} must fail with Codec, got {other:?}"),
        }
    }
}

#[test]
fn corrupted_snapshots_fail_with_a_typed_error() {
    let bytes = valid_snapshot();
    // Bad magic.
    let mut bad = bytes.clone();
    bad[0] ^= 0xFF;
    assert!(matches!(
        SystemBuilder::resume_from(&bad, None),
        Err(SnapshotError::Codec(nim_types::codec::CodecError::BadMagic))
    ));
    // The first byte after the CFG section header is the scheme tag:
    // 10 header bytes, 4+4 tag string, 2 version, 4 length prefix.
    let mut bad = bytes.clone();
    bad[24] = 0xEE;
    assert!(matches!(
        SystemBuilder::resume_from(&bad, None),
        Err(SnapshotError::Codec(nim_types::codec::CodecError::Corrupt(
            _
        )))
    ));
    // Trailing garbage.
    let mut bad = bytes.clone();
    bad.extend_from_slice(b"junk");
    assert!(matches!(
        SystemBuilder::resume_from(&bad, None),
        Err(SnapshotError::Codec(nim_types::codec::CodecError::Corrupt(
            _
        )))
    ));
}

#[test]
fn version_mismatched_snapshots_fail_with_a_typed_error() {
    let valid = valid_snapshot();
    // A future version, and version 1 — whose `CFG ` section still
    // carried a removed byte, so the layout is incompatible.
    for version in [0xFFFF_u16, 1] {
        let mut bytes = valid.clone();
        // The u16 after the 8-byte magic is the global snapshot version.
        bytes[8..10].copy_from_slice(&version.to_le_bytes());
        match SystemBuilder::resume_from(&bytes, None) {
            Err(SnapshotError::Codec(nim_types::codec::CodecError::UnsupportedVersion {
                found,
                ..
            })) => assert_eq!(found, version),
            other => panic!("version skew must fail with UnsupportedVersion, got {other:?}"),
        }
    }
}

#[test]
fn unknown_benchmarks_fail_with_a_typed_error() {
    let mut bytes = valid_snapshot();
    // The benchmark name is stored once, in the WKLD section; misspell
    // it in place.
    let name = b"synthetic";
    let at = bytes
        .windows(name.len())
        .position(|w| w == name)
        .expect("benchmark name in snapshot");
    bytes[at] = b'z';
    match SystemBuilder::resume_from(&bytes, None) {
        Err(SnapshotError::UnknownBenchmark(n)) => assert_eq!(n, "zynthetic"),
        other => panic!("unknown benchmark must be typed, got {other:?}"),
    }
}

#[test]
fn snapshot_legality_is_enforced() {
    let profile = BenchmarkProfile::synthetic();
    let cell = Cell::new(Scheme::CmpDnuca3d, 2, FabricKind::Sim);

    // No run in progress.
    let system = cell.build();
    let gen = TraceGenerator::new(&profile, system.config().num_cpus, SEED);
    assert!(matches!(
        system.snapshot(&gen),
        Err(SnapshotError::NoRunInProgress)
    ));

    // Mid-run but not on an epoch boundary (no sample row recorded yet).
    let mut system = cell.build();
    let gen = system.begin(&profile);
    assert!(matches!(
        system.snapshot(&gen),
        Err(SnapshotError::NotEpochBoundary { .. })
    ));
}

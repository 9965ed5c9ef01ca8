//! End-to-end tests of the analytic fabrics ([`FabricKind::LatencyTable`]
//! and [`FabricKind::Ideal`]): the protocol engine runs unchanged on top
//! of a latency model instead of the flit-level NoC, so whole runs must
//! complete, stay deterministic, and order sensibly against each other
//! (contention can only add cycles, never remove them).
//!
//! The flit-exact validation of the underlying zero-load model lives in
//! `nim-noc`'s `fabric_equivalence` test; this file covers the system
//! integration: delivery scheduling and stall detection.

use nim_core::{FabricKind, RunReport, Scheme, SystemBuilder};
use nim_workload::BenchmarkProfile;

fn run(kind: FabricKind) -> RunReport {
    let mut sys = SystemBuilder::new(Scheme::CmpDnuca3d)
        .seed(42)
        .warmup_transactions(50)
        .sampled_transactions(400)
        .fabric(kind)
        .build()
        .expect("system builds");
    sys.run(&BenchmarkProfile::art()).expect("run completes")
}

#[test]
fn modeled_fabrics_complete_whole_runs() {
    for kind in [FabricKind::LatencyTable, FabricKind::Ideal] {
        let report = run(kind);
        assert_eq!(report.counters.l2_transactions, 400, "{kind}");
        assert!(report.cycles > 0, "{kind}");
        // Traffic bypasses the flit-level network entirely, so its
        // statistics stay zero — the analytic model is the only timing
        // source.
        assert_eq!(report.network.packets_delivered, 0, "{kind}");
        assert_eq!(report.network.flit_hops, 0, "{kind}");
    }
}

#[test]
fn ideal_fabric_is_no_slower_than_the_latency_table() {
    let table = run(FabricKind::LatencyTable);
    let ideal = run(FabricKind::Ideal);
    // The latency-table fabric only ever *adds* pillar serialisation
    // delay on top of the shared zero-load costs.
    assert!(
        ideal.cycles <= table.cycles,
        "ideal {} cycles vs latency-table {}",
        ideal.cycles,
        table.cycles
    );
}

#[test]
fn sim_fabric_still_simulates_flits() {
    let report = run(FabricKind::Sim);
    assert!(report.network.packets_delivered > 0);
    assert!(report.network.flit_hops > 0);
}

#[test]
fn modeled_runs_are_deterministic() {
    for kind in [FabricKind::LatencyTable, FabricKind::Ideal] {
        let a = run(kind).fingerprint();
        let b = run(kind).fingerprint();
        assert_eq!(a, b, "{kind} not deterministic");
    }
}

#[test]
fn fabric_kind_names_round_trip() {
    for kind in FabricKind::ALL {
        assert_eq!(FabricKind::parse(kind.name()), Ok(kind));
    }
    assert_eq!(FabricKind::parse("warp-drive"), Err("warp-drive"));
}

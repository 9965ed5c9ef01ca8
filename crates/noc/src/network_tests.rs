//! Unit tests for the [`Network`](super::Network) phases: injection,
//! routing, dTDMA bus grants, and delivery accounting.
//! Lives beside `network.rs` (the `#[path]` include keeps `super::*`
//! visibility) so the engine file itself stays within the size guard.

use super::*;
use crate::packet::TrafficClass;
use nim_types::{PillarId, SystemConfig};

fn net(mode: VerticalMode) -> (ChipLayout, Network) {
    let cfg = SystemConfig::default();
    let layout = ChipLayout::new(&cfg).unwrap();
    let network = Network::new(&layout, &cfg.network, mode);
    (layout, network)
}

fn send_one(
    net: &mut Network,
    src: Coord,
    dst: Coord,
    via: Option<PillarId>,
    flits: u32,
) -> PacketId {
    net.send(SendRequest {
        src,
        dst,
        via,
        class: TrafficClass::Control,
        flits,
        token: 7,
    })
}

#[test]
fn single_flit_same_layer_zero_load_latency() {
    let (_, mut net) = net(VerticalMode::Pillars);
    let src = Coord::new(0, 0, 0);
    let dst = Coord::new(3, 0, 0);
    send_one(&mut net, src, dst, None, 1);
    let cycles = net.run_until_idle(100).expect("must drain");
    // 1 injection cycle + 3 hops + 1 ejection cycle.
    assert_eq!(cycles, 5);
    let d = net.pop_delivered(dst).expect("delivered");
    assert_eq!(d.latency(), 5);
    assert_eq!(d.hops, 3);
    assert_eq!(d.token, 7);
    assert_eq!(net.stats().packets_delivered, 1);
}

#[test]
fn four_flit_packet_streams_behind_its_head() {
    let (_, mut net) = net(VerticalMode::Pillars);
    let src = Coord::new(0, 0, 0);
    let dst = Coord::new(3, 0, 0);
    send_one(&mut net, src, dst, None, 4);
    let cycles = net.run_until_idle(100).expect("must drain");
    // Head takes 5; each body/tail flit adds one cycle behind it.
    assert_eq!(cycles, 8);
    let d = net.pop_delivered(dst).unwrap();
    assert_eq!(d.latency(), 8);
}

#[test]
fn delivery_to_self_works() {
    let (_, mut net) = net(VerticalMode::Pillars);
    let here = Coord::new(2, 2, 0);
    send_one(&mut net, here, here, None, 1);
    net.run_until_idle(50).expect("drains");
    let d = net.pop_delivered(here).unwrap();
    assert_eq!(d.hops, 0, "local delivery never leaves the router");
}

#[test]
fn cross_layer_rides_the_pillar_bus() {
    let (layout, mut net) = net(VerticalMode::Pillars);
    let p = PillarId(0);
    let (px, py) = layout.pillar_xy(p);
    let src = Coord::new(px, py, 0);
    let dst = Coord::new(px, py, 1);
    send_one(&mut net, src, dst, Some(p), 1);
    let cycles = net.run_until_idle(100).expect("drains");
    // inject + vertical crossbar + bus + eject = 4 cycles.
    assert_eq!(cycles, 4);
    let d = net.pop_delivered(dst).unwrap();
    assert_eq!(d.hops, 1, "the bus is a single hop between any layers");
    assert_eq!(net.stats().bus_transfers, 1);
    assert_eq!(net.bus_stats()[0].transfers, 1);
}

#[test]
fn cross_layer_from_off_pillar_walks_to_the_pillar() {
    let (layout, mut net) = net(VerticalMode::Pillars);
    let p = PillarId(0);
    let (px, py) = layout.pillar_xy(p);
    let src = Coord::new(px.saturating_sub(1), py, 0);
    let dst = Coord::new(px + 1, py, 1);
    send_one(&mut net, src, dst, Some(p), 1);
    net.run_until_idle(200).expect("drains");
    let d = net.pop_delivered(dst).unwrap();
    // 1 hop to pillar + 1 bus hop + 1 hop to dst.
    assert_eq!(d.hops, 3);
}

#[test]
fn mesh3d_mode_climbs_with_up_down_ports() {
    let (_, mut net) = net(VerticalMode::Mesh3d);
    let src = Coord::new(0, 0, 0);
    let dst = Coord::new(2, 0, 1);
    send_one(&mut net, src, dst, None, 1);
    net.run_until_idle(100).expect("drains");
    let d = net.pop_delivered(dst).unwrap();
    assert_eq!(d.hops, 3, "2 lateral + 1 vertical mesh hop");
    assert_eq!(net.stats().bus_transfers, 0, "no buses in mesh3d mode");
}

#[test]
fn pillar_contention_is_observable() {
    let (layout, mut net) = net(VerticalMode::Pillars);
    let p = PillarId(0);
    let (px, py) = layout.pillar_xy(p);
    // Two senders on different layers both crossing simultaneously.
    send_one(
        &mut net,
        Coord::new(px, py, 0),
        Coord::new(px, py, 1),
        Some(p),
        4,
    );
    send_one(
        &mut net,
        Coord::new(px, py, 1),
        Coord::new(px, py, 0),
        Some(p),
        4,
    );
    net.run_until_idle(300).expect("drains");
    assert_eq!(net.stats().packets_delivered, 2);
    let bs = net.bus_stats()[0];
    assert!(bs.contention_cycles > 0);
    assert!(
        bs.contention_cycles <= bs.transfers,
        "contention is only counted on cycles where a transfer happens; \
         VC-blocked rounds are backpressure, not contention"
    );
}

#[test]
fn many_packets_all_arrive_exactly_once() {
    let (layout, mut net) = net(VerticalMode::Pillars);
    let mut expected = Vec::new();
    // All-to-all among a set of nodes spread over both layers.
    let nodes = [
        Coord::new(0, 0, 0),
        Coord::new(15, 7, 0),
        Coord::new(7, 3, 1),
        Coord::new(2, 6, 1),
        Coord::new(12, 1, 0),
    ];
    let mut token = 0u64;
    for &s in &nodes {
        for &d in &nodes {
            if s != d {
                let via = layout.nearest_pillar(s);
                net.send(SendRequest {
                    src: s,
                    dst: d,
                    via,
                    class: TrafficClass::Data,
                    flits: 4,
                    token,
                });
                expected.push((d, token));
                token += 1;
            }
        }
    }
    net.run_until_idle(10_000).expect("all traffic drains");
    let mut got: Vec<(Coord, u64)> = net
        .drain_delivered()
        .into_iter()
        .map(|d| (d.dst, d.token))
        .collect();
    got.sort_unstable_by_key(|&(c, t)| (c.layer, c.y, c.x, t));
    expected.sort_unstable_by_key(|&(c, t)| (c.layer, c.y, c.x, t));
    assert_eq!(got, expected);
    assert_eq!(net.stats().packets_sent, net.stats().packets_delivered);
}

#[test]
fn per_source_destination_order_is_preserved() {
    let (_, mut net) = net(VerticalMode::Pillars);
    let src = Coord::new(0, 0, 0);
    let dst = Coord::new(5, 5, 0);
    for t in 0..10u64 {
        net.send(SendRequest {
            src,
            dst,
            via: None,
            class: TrafficClass::Control,
            flits: 1,
            token: t,
        });
    }
    net.run_until_idle(1_000).expect("drains");
    let tokens: Vec<u64> = std::iter::from_fn(|| net.pop_delivered(dst))
        .map(|d| d.token)
        .collect();
    assert_eq!(tokens, (0..10).collect::<Vec<_>>());
}

#[test]
fn heavy_random_traffic_drains_without_deadlock() {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    let (layout, mut net) = net(VerticalMode::Pillars);
    let mut rng = StdRng::seed_from_u64(42);
    let mut sent = 0u64;
    for _ in 0..400 {
        let src = Coord::new(
            rng.random_range(0..layout.width()),
            rng.random_range(0..layout.height()),
            rng.random_range(0..layout.layers()),
        );
        let dst = Coord::new(
            rng.random_range(0..layout.width()),
            rng.random_range(0..layout.height()),
            rng.random_range(0..layout.layers()),
        );
        let flits = if rng.random_bool(0.5) { 1 } else { 4 };
        net.send(SendRequest {
            src,
            dst,
            via: layout.nearest_pillar(src),
            class: TrafficClass::Data,
            flits,
            token: sent,
        });
        sent += 1;
        // Interleave some ticks so injection queues overlap in time.
        if sent.is_multiple_of(7) {
            net.tick();
        }
    }
    net.run_until_idle(100_000).expect("no deadlock under load");
    assert_eq!(net.stats().packets_delivered, sent);
    assert!(net.stats().avg_latency() > 0.0);
    assert!(
        net.stats().switch_contention > 0,
        "load must cause contention"
    );
}

#[test]
fn stats_latency_matches_deliveries() {
    let (_, mut net) = net(VerticalMode::Pillars);
    send_one(&mut net, Coord::new(0, 0, 0), Coord::new(1, 0, 0), None, 1);
    send_one(&mut net, Coord::new(4, 4, 0), Coord::new(4, 6, 0), None, 1);
    net.run_until_idle(100).unwrap();
    let ds = net.drain_delivered();
    let sum: u64 = ds.iter().map(|d| d.latency()).sum();
    assert_eq!(net.stats().total_latency, sum);
    assert_eq!(net.stats().avg_latency(), sum as f64 / 2.0);
}

#[test]
fn mesh3d_four_layer_traffic() {
    let cfg = SystemConfig::default().with_layers(4);
    let layout = ChipLayout::new(&cfg).unwrap();
    let mut net = Network::new(&layout, &cfg.network, VerticalMode::Mesh3d);
    send_one(&mut net, Coord::new(0, 0, 0), Coord::new(0, 0, 3), None, 1);
    net.run_until_idle(100).expect("drains");
    let d = net.pop_delivered(Coord::new(0, 0, 3)).unwrap();
    assert_eq!(
        d.hops, 3,
        "each layer crossing is a mesh hop in 3D-mesh mode"
    );
}

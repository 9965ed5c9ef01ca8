//! Unit tests for the [`Network`](super::Network) phases: injection,
//! routing, dTDMA bus grants, and delivery accounting, plus the
//! consistency check of the engine's derived state.
//! Lives beside `network.rs` (the `#[path]` include keeps `super::*`
//! visibility) so the engine file itself stays within the size guard.

use super::*;
use crate::packet::TrafficClass;
use nim_types::{PillarId, SystemConfig};

impl Network {
    /// Asserts that all derived state agrees with the queues it
    /// summarises: every `live`/`owned` bit with its VC, each router's
    /// occupancy with its VC lengths, the dirty set with the routers
    /// holding flits, each head's stored route with a fresh `route()`,
    /// the other work sets with their queues, and `flits_in_flight` with
    /// buffered + transceiver-queued + not-yet-injected flits.
    pub(super) fn assert_consistent(&self) {
        let vcs = self.vcs;
        let mut buffered = 0u64;
        for (n, r) in self.routers.iter().enumerate() {
            let mut flits = 0u64;
            for slot in 0..Dir::COUNT * vcs {
                let (vc, bit) = (self.vc(n, slot), 1u64 << slot);
                if !r.has_port(slot / vcs) {
                    assert_eq!(
                        (r.live | r.owned) & bit,
                        0,
                        "router {n}: bit {slot} of a missing port"
                    );
                    continue;
                }
                assert_eq!(
                    r.live & bit != 0,
                    !vc.fifo().is_empty(),
                    "router {n}: live bit {slot}"
                );
                assert_eq!(
                    r.owned & bit != 0,
                    vc.owner().is_some(),
                    "router {n}: owned bit {slot}"
                );
                if let Some(f) = vc.front(&self.arena).filter(|f| f.kind.is_head()) {
                    let fresh = route(&self.layout, &self.routes, self.mode, r.coord, f.dst, f.via);
                    assert_eq!(vc.route, fresh, "router {n}: stored route of slot {slot}");
                }
                flits += vc.fifo().len() as u64;
            }
            assert_eq!(u64::from(r.occupancy), flits, "router {n}: occupancy");
            assert_eq!(self.dirty.contains(n), flits > 0, "router {n}: dirty bit");
            for (o, hold) in r.held.iter().enumerate() {
                assert_eq!(
                    r.held_mask & (1 << o) != 0,
                    hold.is_some(),
                    "router {n}: held bit {o}"
                );
            }
            buffered += flits;
        }
        let dirty = self.routers.iter().filter(|r| r.occupancy > 0).count();
        assert_eq!(self.dirty.len(), dirty, "dirty count");
        let mut pending = 0u64;
        for (n, inj) in self.injectors.iter().enumerate() {
            assert_eq!(
                self.inj_active.contains(n),
                !inj.queue.is_empty(),
                "injector {n}"
            );
            pending += inj
                .queue
                .iter()
                .map(|p| u64::from(p.req.flits - p.seq))
                .sum::<u64>();
        }
        for (n, outbox) in self.outbox.iter().enumerate() {
            assert_eq!(self.delivered.contains(n), !outbox.is_empty(), "outbox {n}");
        }
        for b in 0..self.buses.len() {
            assert_eq!(
                self.bus_active.contains(b),
                self.bus_queued(b) > 0,
                "bus {b}"
            );
        }
        let queued: u64 = self.ifaces.iter().map(|i| i.q.len() as u64).sum();
        assert_eq!(
            self.flits_in_flight,
            buffered + queued + pending,
            "flits in flight"
        );
    }
}

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

#[test]
fn derived_state_stays_consistent_under_random_traffic() {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    let narrow = SystemConfig::default().with_layers(4);
    let mut wide = SystemConfig::default();
    wide.network.vcs_per_port = 8;
    wide.network.vc_depth_flits = 2;
    let cells = [
        (SystemConfig::default(), VerticalMode::Pillars),
        (wide, VerticalMode::Pillars),
        (SystemConfig::default(), VerticalMode::Mesh3d),
        (narrow, VerticalMode::Mesh3d),
    ];
    for (seed, (cfg, mode)) in cells.into_iter().enumerate() {
        let layout = ChipLayout::new(&cfg).unwrap();
        let mut net = Network::new(&layout, &cfg.network, mode);
        let mut rng = StdRng::seed_from_u64(seed as u64);
        let mut sent = 0u64;
        let coord = |rng: &mut StdRng| {
            Coord::new(
                rng.random_range(0..layout.width()),
                rng.random_range(0..layout.height()),
                rng.random_range(0..layout.layers()),
            )
        };
        for cycle in 0..2_000u64 {
            if cycle < 600 {
                for _ in 0..rng.random_range(0..3u32) {
                    let src = coord(&mut rng);
                    let dst = coord(&mut rng);
                    net.send(SendRequest {
                        src,
                        dst,
                        via: layout.nearest_pillar(src),
                        class: TrafficClass::Data,
                        flits: rng.random_range(1..=4u32),
                        token: sent,
                    });
                    sent += 1;
                }
            }
            net.tick();
            if cycle % 5 == 0 {
                // Pick some deliveries up one by one, the rest in bulk.
                let _ = net.pop_delivered(coord(&mut rng));
                net.drain_delivered();
            }
            net.assert_consistent();
        }
        assert!(net.is_idle(), "cell {seed} drains");
        assert_eq!(net.stats().packets_delivered, sent);
    }
}

//! Recorded network-level goldens: seeded pseudo-random traffic driven
//! into a standalone [`Network`] on several router configurations, each
//! reduced to one stable 64-bit digest.
//!
//! The digest covers every [`Delivered`] record in drain order (drained
//! after every tick), the final [`NetworkStats`], the per-pillar
//! [`BusStats`] and the per-router traversal counts, hashed with
//! [`FxHasher`] so the value is identical across platforms. The cells
//! reach what the system-level fingerprints do not: non-default VC
//! counts and depths, a 2-cycle router, a narrow bus, four layers and
//! the 7-port 3D-mesh router. Any change to arbitration order, VC
//! allocation or routing shows up as a digest mismatch.

use std::hash::Hasher as _;

use nim_noc::{
    BusStats, Delivered, Network, NetworkStats, SendRequest, TrafficClass, VerticalMode,
};
use nim_topology::ChipLayout;
use nim_types::{Coord, FxHasher, PillarId, SystemConfig};

/// SplitMix64: a tiny, fully specified generator, so the traffic does
/// not depend on any library's stream.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Cycles during which new packets are offered, 0–2 per cycle (about
/// one on average): enough for switch and bus contention on every cell,
/// below the load at which the narrow-bus cell stops draining.
const OFFER_CYCLES: u64 = 1_500;
/// Budget for draining what is still in flight afterwards.
const DRAIN_LIMIT: u64 = 200_000;

fn random_coord(rng: &mut SplitMix64, layout: &ChipLayout) -> Coord {
    let x = rng.below(u64::from(layout.width())) as u8;
    let y = rng.below(u64::from(layout.height())) as u8;
    let layer = rng.below(u64::from(layout.layers())) as u8;
    Coord::new(x, y, layer)
}

fn hash_coord(h: &mut FxHasher, c: Coord) {
    h.write_u8(c.x);
    h.write_u8(c.y);
    h.write_u8(c.layer);
}

fn hash_delivered(h: &mut FxHasher, d: &Delivered) {
    h.write_u64(d.packet.0);
    hash_coord(h, d.src);
    hash_coord(h, d.dst);
    h.write_usize(d.class.index());
    h.write_u64(d.token);
    h.write_u64(d.injected.0);
    h.write_u64(d.delivered.0);
    h.write_u16(d.hops);
    h.write_u32(d.bus_wait);
}

fn hash_stats(h: &mut FxHasher, s: &NetworkStats) {
    for v in [
        s.packets_sent,
        s.packets_delivered,
        s.total_latency,
        s.max_latency,
        s.total_hops,
        s.flit_hops,
        s.bus_transfers,
        s.switch_contention,
    ] {
        h.write_u64(v);
    }
    for arr in [
        &s.flit_hops_by_class,
        &s.delivered_by_class,
        &s.latency_by_class,
    ] {
        for &v in arr {
            h.write_u64(v);
        }
    }
    for &b in s.latency_histogram.buckets() {
        h.write_u64(b);
    }
}

fn hash_bus(h: &mut FxHasher, b: &BusStats) {
    h.write_u64(b.transfers);
    h.write_u64(b.busy_cycles);
    h.write_u64(b.contention_cycles);
    h.write_u64(b.peak_queued);
}

/// Drives seeded random traffic through one network configuration and
/// returns its digest.
fn digest(cfg: &SystemConfig, mode: VerticalMode, seed: u64) -> u64 {
    let layout = ChipLayout::new(cfg).expect("golden cell layouts are valid");
    let mut net = Network::new(&layout, &cfg.network, mode);
    let mut rng = SplitMix64(seed);
    let mut h = FxHasher::default();
    let mut buf = Vec::new();
    let mut token = 0u64;
    let mut drain = |net: &mut Network, h: &mut FxHasher| {
        buf.clear();
        net.drain_delivered_into(&mut buf);
        for d in &buf {
            hash_delivered(h, d);
        }
    };
    for _ in 0..OFFER_CYCLES {
        for _ in 0..rng.below(3) {
            let src = random_coord(&mut rng, &layout);
            let dst = random_coord(&mut rng, &layout);
            let via = match (mode, rng.below(3)) {
                (VerticalMode::Mesh3d, _) | (_, 0) => None,
                (_, 1) => layout.nearest_pillar(src),
                _ => Some(PillarId(rng.below(u64::from(layout.num_pillars())) as u16)),
            };
            net.send(SendRequest {
                src,
                dst,
                via,
                class: TrafficClass::ALL[rng.below(4) as usize],
                flits: 1 + rng.below(5) as u32,
                token,
            });
            token += 1;
        }
        net.tick();
        drain(&mut net, &mut h);
    }
    let mut spent = 0;
    while !net.is_idle() {
        assert!(spent < DRAIN_LIMIT, "golden traffic must drain");
        net.tick();
        drain(&mut net, &mut h);
        spent += 1;
    }
    assert_eq!(net.stats().packets_delivered, token);
    assert!(net.stats().switch_contention > 0, "traffic must contend");
    h.write_u64(net.now().0);
    hash_stats(&mut h, net.stats());
    for b in net.bus_stats() {
        hash_bus(&mut h, &b);
    }
    for &t in net.traversals() {
        h.write_u64(t);
    }
    h.finish()
}

/// One recorded cell: name, configuration edit, router mode, digest.
struct Cell {
    name: &'static str,
    edit: fn(&mut SystemConfig),
    mode: VerticalMode,
    digest: u64,
}

const CELLS: [Cell; 8] = [
    Cell {
        name: "pillars/default",
        edit: |_| {},
        mode: VerticalMode::Pillars,
        digest: 0xc29f_91fe_dec3_e53f,
    },
    Cell {
        name: "pillars/vcs_per_port=1",
        edit: |c| c.network.vcs_per_port = 1,
        mode: VerticalMode::Pillars,
        digest: 0x91bf_a63a_115f_d966,
    },
    Cell {
        name: "pillars/vcs_per_port=4",
        edit: |c| c.network.vcs_per_port = 4,
        mode: VerticalMode::Pillars,
        digest: 0x0c26_3f06_0cc1_02d5,
    },
    Cell {
        name: "pillars/vc_depth_flits=1",
        edit: |c| c.network.vc_depth_flits = 1,
        mode: VerticalMode::Pillars,
        digest: 0xd012_ed47_ee7b_1791,
    },
    Cell {
        name: "pillars/router_latency=2",
        edit: |c| c.network.router_latency = 2,
        mode: VerticalMode::Pillars,
        digest: 0x5ae7_ddeb_048c_de77,
    },
    Cell {
        name: "pillars/bus_width_bits=32",
        edit: |c| c.network.bus_width_bits = 32,
        mode: VerticalMode::Pillars,
        digest: 0x60f7_a7af_3971_4985,
    },
    Cell {
        name: "pillars/layers=4",
        edit: |c| *c = c.with_layers(4),
        mode: VerticalMode::Pillars,
        digest: 0xd6af_f202_3ec3_9268,
    },
    Cell {
        name: "mesh3d/default",
        edit: |_| {},
        mode: VerticalMode::Mesh3d,
        digest: 0x5ca4_9094_d8d0_6858,
    },
];

#[test]
fn network_digests_match_the_recorded_goldens() {
    let mut mismatches = Vec::new();
    for (i, cell) in CELLS.iter().enumerate() {
        let mut cfg = SystemConfig::default();
        (cell.edit)(&mut cfg);
        let got = digest(&cfg, cell.mode, 0x5eed_0000 + i as u64);
        if got != cell.digest {
            mismatches.push(format!(
                "{}: recorded {:#018x}, got {got:#018x}",
                cell.name, cell.digest
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn digest_is_deterministic() {
    let cfg = SystemConfig::default();
    assert_eq!(
        digest(&cfg, VerticalMode::Pillars, 1),
        digest(&cfg, VerticalMode::Pillars, 1)
    );
}

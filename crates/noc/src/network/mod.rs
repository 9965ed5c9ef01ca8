//! The cycle-accurate network engine.
//!
//! [`Network`] owns every router, pillar bus, injection queue, and delivery
//! queue of the chip and advances them one clock cycle per [`Network::tick`].
//! Each cycle runs three phases:
//!
//! 1. **Bus phase** ([`bus_phase`]) — every dTDMA pillar transfers at most
//!    one flit from a transceiver interface to the destination layer's
//!    pillar router (round-robin over active interfaces = dynamic slot
//!    allocation).
//! 2. **Router phase** ([`router_phase`]) — every active router performs
//!    switch allocation: per output port, the winning flit traverses to
//!    the next router's input VC (single-stage router: one hop per cycle
//!    on a win).
//! 3. **Injection phase** ([`injection`]) — each node's network interface
//!    streams at most one flit of its oldest pending packet into a
//!    local-input VC.
//!
//! A flit stamped `arrived == now` cannot move again in the same cycle, so
//! ordering of phases never lets a flit traverse two hops per cycle.
//!
//! Each phase visits only what holds work, in ascending index order:
//! routers with buffered flits, buses with queued flits and nodes with
//! packets pending injection are kept in [`BitSet`]s, maintained as flits
//! enter and leave, and an empty set is recognised in O(1), which keeps
//! big idle meshes cheap to tick. Within a router, bitmasks over its VCs
//! (`live`, `owned`) and outputs (`held_mask`) let switch allocation read
//! only the VCs that hold flits and arbitrate only the outputs that are
//! requested or held; a head flit's output port is computed once, when
//! it enters a VC, and stored there (look-ahead routing).
//!
//! Every VC of the chip lives in one network-wide vector indexed
//! `(node * Dir::COUNT + dir) * vcs + vc`, and every VC and transceiver
//! FIFO draws its storage from one pooled [`FlitArena`], so moving a flit
//! is a copy between two ring slots of the same slab.

mod bus_phase;
mod injection;
mod router_phase;
mod snapshot;

use std::collections::VecDeque;

use nim_obs::{Category, EventData, Obs};
use nim_topology::{ChipLayout, RouteMap};
use nim_types::{Coord, Cycle, Dir, NetworkConfig, PacketId};

use crate::bitset::{BitSet, Bits};
use crate::dtdma::{BusStats, DtdmaBus, Iface};
use crate::packet::{Delivered, Flit, FlitArena, SendRequest};
use crate::router::Router;
use crate::routing::{route, VerticalMode};
use crate::stats::NetworkStats;
use crate::vc::Vc;

/// One pending packet at a node's network interface.
#[derive(Clone, Copy, Debug)]
struct Pending {
    id: PacketId,
    req: SendRequest,
    seq: u32,
    injected: Cycle,
}

/// Per-node injection state.
#[derive(Clone, Debug, Default)]
struct Injector {
    queue: VecDeque<Pending>,
    /// VC the current packet is streaming into.
    vc: Option<usize>,
}

/// The on-chip network: stacked wormhole meshes joined by dTDMA pillars
/// (or by a full 3D mesh in the ablation mode).
#[derive(Clone, Debug)]
pub struct Network {
    layout: ChipLayout,
    /// Precomputed nearest-pillar table (decision-identical to the
    /// layout's linear scan) — the O(1) fallback for unpinned routes.
    routes: RouteMap,
    mode: VerticalMode,
    vcs: usize,
    /// Cycles a flit dwells in a router before it may leave (Table 4:
    /// 1-cycle single-stage router; the 7-port ablation uses 2).
    router_latency: u64,
    /// Bus cycles per flit on the pillars (1 for a flit-wide bus; more
    /// when the via budget only affords a narrower vertical bus).
    bus_cycles_per_flit: u64,
    /// Per-bus earliest next grant time (serialisation of narrow buses).
    bus_ready_at: Vec<u64>,
    routers: Vec<Router>,
    /// Every VC of the chip, indexed `(node * Dir::COUNT + dir) * vcs +
    /// vc`; ports a router lacks hold [`Vc::ABSENT`].
    vc_slots: Vec<Vc>,
    buses: Vec<DtdmaBus>,
    /// Bus index at each node position, if the node is a pillar node.
    bus_of_node: Vec<Option<u16>>,
    injectors: Vec<Injector>,
    outbox: Vec<VecDeque<Delivered>>,
    /// Nodes whose outbox holds deliveries.
    delivered: BitSet,
    /// Routers with buffered flits (`occupancy > 0`).
    dirty: BitSet,
    /// Nodes with packets pending injection.
    inj_active: BitSet,
    /// Buses with at least one queued flit.
    bus_active: BitSet,
    /// Pooled backing store for every VC and transceiver FIFO.
    arena: FlitArena,
    /// Pillar transceiver interfaces, indexed `bus * layers + layer`.
    ifaces: Vec<Iface>,
    now: Cycle,
    next_pkt: u64,
    flits_in_flight: u64,
    stats: NetworkStats,
    /// Flit traversals through each router (node-indexed), for
    /// utilisation maps and hotspot analysis.
    traversals: Vec<u64>,
    /// Observability sink; disabled by default (one branch per event).
    obs: Obs,
}

/// A [`Coord`] as the `[x, y, layer]` triple trace events carry.
#[inline]
fn c3(c: Coord) -> [u16; 3] {
    [u16::from(c.x), u16::from(c.y), u16::from(c.layer)]
}

impl Network {
    /// Builds the network for a chip layout.
    ///
    /// `mode` selects the vertical interconnect: [`VerticalMode::Pillars`]
    /// is the paper's hybrid NoC/bus design; [`VerticalMode::Mesh3d`] is
    /// the rejected 7-port router kept for the design-search ablation.
    ///
    /// # Panics
    ///
    /// Panics unless `cfg.vcs_per_port` is 1–8 (a router's VCs share one
    /// 64-bit mask) and `cfg.vc_depth_flits` is 1–16384;
    /// [`SystemConfig::validate`](nim_types::SystemConfig::validate)
    /// rejects other values with a typed error.
    pub fn new(layout: &ChipLayout, cfg: &NetworkConfig, mode: VerticalMode) -> Self {
        let vcs = cfg.vcs_per_port as usize;
        assert!((1..=8).contains(&vcs), "1 to 8 VCs per port supported");
        let depth = cfg.vc_depth_flits as usize;
        let n = layout.num_nodes();
        let mut arena = FlitArena::default();
        let mut routers = Vec::with_capacity(n);
        let mut vc_slots = Vec::with_capacity(n * Dir::COUNT * vcs);
        let mut bus_of_node = vec![None; n];
        for i in 0..n {
            let c = layout.coord_of_index(i);
            let mut dirs = vec![Dir::Local];
            for d in Dir::MESH {
                if d.step(c.x, c.y, layout.width(), layout.height()).is_some() {
                    dirs.push(d);
                }
            }
            match mode {
                VerticalMode::Pillars => {
                    if layout.layers() > 1 && layout.is_pillar_node(c) {
                        dirs.push(Dir::Vertical);
                    }
                }
                VerticalMode::Mesh3d => {
                    if c.layer + 1 < layout.layers() {
                        dirs.push(Dir::Up);
                    }
                    if c.layer > 0 {
                        dirs.push(Dir::Down);
                    }
                }
            }
            let router = Router::new(c, &dirs);
            for d in 0..Dir::COUNT {
                for _ in 0..vcs {
                    vc_slots.push(if router.has_port(d) {
                        Vc::new(&mut arena, depth)
                    } else {
                        Vc::ABSENT
                    });
                }
            }
            routers.push(router);
        }
        let mut buses = Vec::new();
        let mut ifaces = Vec::new();
        if mode == VerticalMode::Pillars && layout.layers() > 1 {
            for p in 0..layout.num_pillars() {
                let pillar = nim_types::PillarId(p);
                let xy = layout.pillar_xy(pillar);
                for layer in 0..layout.layers() {
                    let idx = layout.node_index(Coord::new(xy.0, xy.1, layer));
                    bus_of_node[idx] = Some(p);
                    ifaces.push(Iface::new(&mut arena, depth));
                }
                buses.push(DtdmaBus::new(pillar, xy));
            }
        }
        Self {
            layout: layout.clone(),
            routes: RouteMap::new(layout),
            mode,
            vcs,
            router_latency: u64::from(cfg.router_latency).max(1),
            bus_cycles_per_flit: u64::from(cfg.bus_cycles_per_flit()).max(1),
            bus_ready_at: vec![0; buses.len()],
            bus_active: BitSet::new(buses.len()),
            routers,
            vc_slots,
            buses,
            bus_of_node,
            injectors: vec![Injector::default(); n],
            outbox: vec![VecDeque::new(); n],
            delivered: BitSet::new(n),
            dirty: BitSet::new(n),
            inj_active: BitSet::new(n),
            arena,
            ifaces,
            now: Cycle::ZERO,
            next_pkt: 0,
            flits_in_flight: 0,
            stats: NetworkStats::default(),
            traversals: vec![0; n],
            obs: Obs::disabled(),
        }
    }

    /// Attaches an observability handle; events and per-tick cycle
    /// stamps flow into it from now on. The network drives
    /// [`Obs::set_now`], so the same handle shared by other components
    /// sees a consistent clock.
    pub fn set_obs(&mut self, obs: Obs) {
        obs.set_now(self.now.0);
        self.obs = obs;
    }

    /// The current simulated time.
    #[inline]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Whether no flits are buffered, queued, or awaiting injection.
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.flits_in_flight == 0
    }

    /// Accumulated statistics.
    #[inline]
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// Per-bus statistics, indexed by pillar.
    pub fn bus_stats(&self) -> Vec<BusStats> {
        let mut out = Vec::new();
        self.bus_stats_into(&mut out);
        out
    }

    /// Clears `buf` and fills it with per-bus statistics, indexed by
    /// pillar — the allocation-free variant callers on a sampling path
    /// use with a reused buffer (mirrors
    /// [`Network::drain_delivered_into`]).
    pub fn bus_stats_into(&self, buf: &mut Vec<BusStats>) {
        buf.clear();
        buf.extend(self.buses.iter().map(|b| b.stats));
    }

    /// Flits currently queued at each pillar bus's transceiver
    /// interfaces, indexed by pillar — the instantaneous occupancy the
    /// epoch sampler snapshots.
    pub fn bus_occupancies(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.bus_occupancies_into(&mut out);
        out
    }

    /// Clears `buf` and fills it with the per-pillar queued-flit counts;
    /// see [`Network::bus_stats_into`].
    pub fn bus_occupancies_into(&self, buf: &mut Vec<usize>) {
        buf.clear();
        buf.extend((0..self.buses.len()).map(|b| self.bus_queued(b)));
    }

    /// Flit traversals through each router, indexed like
    /// [`ChipLayout::node_index`](nim_topology::ChipLayout::node_index) —
    /// the utilisation map behind congestion analysis.
    pub fn traversals(&self) -> &[u64] {
        &self.traversals
    }

    /// Queues a packet for injection at `req.src`. Returns its id.
    ///
    /// The packet's latency clock starts now; injection itself contends
    /// for the node's single flit-wide link into its router.
    ///
    /// # Panics
    ///
    /// Panics if `req.flits == 0` or an endpoint is outside the mesh.
    pub fn send(&mut self, req: SendRequest) -> PacketId {
        assert!(req.flits >= 1, "packet must have at least one flit");
        assert!(
            self.layout.contains(req.src),
            "src {} outside mesh",
            req.src
        );
        assert!(
            self.layout.contains(req.dst),
            "dst {} outside mesh",
            req.dst
        );
        let id = PacketId(self.next_pkt);
        self.next_pkt += 1;
        let node = self.layout.node_index(req.src);
        self.injectors[node].queue.push_back(Pending {
            id,
            req,
            seq: 0,
            injected: self.now,
        });
        self.inj_active.insert(node);
        self.flits_in_flight += u64::from(req.flits);
        self.stats.packets_sent += 1;
        self.obs.emit(Category::Packet, || EventData::PacketInject {
            packet: id.0,
            src: c3(req.src),
            dst: c3(req.dst),
            class: req.class.name(),
            flits: req.flits,
        });
        id
    }

    /// Pops the oldest packet delivered at node `c`, if any.
    pub fn pop_delivered(&mut self, c: Coord) -> Option<Delivered> {
        let idx = self.layout.node_index(c);
        let d = self.outbox[idx].pop_front();
        if self.outbox[idx].is_empty() {
            self.delivered.remove(idx);
        }
        d
    }

    /// Drains every delivered packet, in (node, arrival) order.
    pub fn drain_delivered(&mut self) -> Vec<Delivered> {
        let mut out = Vec::new();
        self.drain_delivered_into(&mut out);
        out
    }

    /// Whether any delivered packets await pickup.
    #[inline]
    pub fn has_deliveries(&self) -> bool {
        !self.delivered.is_empty()
    }

    /// Drains all delivered packets into `buf` (in node order, then
    /// arrival order per node), touching only the nodes that actually
    /// received something.
    pub fn drain_delivered_into(&mut self, buf: &mut Vec<Delivered>) {
        if self.delivered.is_empty() {
            return;
        }
        for w in 0..self.delivered.num_words() {
            for b in Bits(self.delivered.word(w)) {
                buf.extend(self.outbox[w * 64 + b].drain(..));
            }
        }
        self.delivered.clear();
    }

    /// Advances the network by one clock cycle.
    pub fn tick(&mut self) {
        self.now += 1;
        self.obs.set_now(self.now.0);
        self.bus_phase(self.now);
        self.router_phase(self.now);
        self.injection_phase(self.now);
    }

    /// Ticks until the network is idle, up to `max_cycles`. Returns the
    /// number of cycles consumed, or `None` if traffic is still in flight
    /// at the limit (useful to catch livelock in tests).
    pub fn run_until_idle(&mut self, max_cycles: u64) -> Option<u64> {
        let start = self.now;
        while !self.is_idle() {
            if self.now - start >= max_cycles {
                return None;
            }
            self.tick();
        }
        Some(self.now - start)
    }

    /// The transceiver interface of bus `b` on `layer`.
    #[inline]
    fn iface_ix(&self, b: usize, layer: u8) -> usize {
        b * self.layout.layers() as usize + layer as usize
    }

    /// Total flits queued across all of bus `b`'s interfaces.
    fn bus_queued(&self, b: usize) -> usize {
        let layers = self.layout.layers() as usize;
        self.ifaces[b * layers..(b + 1) * layers]
            .iter()
            .map(|iface| iface.q.len())
            .sum()
    }

    /// Index in `vc_slots` of the VC in `slot` (`dir * vcs + vc`) of
    /// router `n`.
    #[inline]
    fn vc_ix(&self, n: usize, slot: usize) -> usize {
        n * Dir::COUNT * self.vcs + slot
    }

    /// The VC in `slot` of router `n`.
    #[inline]
    fn vc(&self, n: usize, slot: usize) -> &Vc {
        &self.vc_slots[self.vc_ix(n, slot)]
    }

    /// Router `n`'s VCs, indexed by slot.
    #[inline]
    fn router_vcs(&self, n: usize) -> &[Vc] {
        &self.vc_slots[self.vc_ix(n, 0)..self.vc_ix(n + 1, 0)]
    }

    /// Pushes `f` into VC `slot` of router `n`, keeping the router's
    /// masks, occupancy and dirty bit in step. A head flit records the
    /// output port its packet takes from this router (look-ahead
    /// routing, once per hop).
    fn vc_push(&mut self, n: usize, slot: usize, f: Flit) {
        let i = self.vc_ix(n, slot);
        let r = &mut self.routers[n];
        if f.kind.is_head() {
            self.vc_slots[i].route =
                route(&self.layout, &self.routes, self.mode, r.coord, f.dst, f.via);
            r.owned |= 1 << slot;
        }
        self.vc_slots[i].push(&mut self.arena, f);
        r.live |= 1 << slot;
        if r.occupancy == 0 {
            self.dirty.insert(n);
        }
        r.occupancy += 1;
    }

    /// Pops the front flit of VC `slot` of router `n`; the mirror of
    /// [`Network::vc_push`].
    fn vc_pop(&mut self, n: usize, slot: usize) -> Flit {
        let i = self.vc_ix(n, slot);
        let vc = &mut self.vc_slots[i];
        let f = vc.pop(&self.arena).expect("popped VC holds a flit");
        let r = &mut self.routers[n];
        if vc.fifo().is_empty() {
            r.live &= !(1 << slot);
        }
        if vc.owner().is_none() {
            r.owned &= !(1 << slot);
        }
        r.occupancy -= 1;
        if r.occupancy == 0 {
            self.dirty.remove(n);
        }
        f
    }
}

#[cfg(test)]
#[path = "../network_tests.rs"]
mod tests;

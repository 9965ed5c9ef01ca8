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
//! Routers with no buffered flits are skipped entirely via a dirty list,
//! buses with nothing queued via an active-pillar list, which keeps big
//! idle meshes cheap to tick.
//!
//! Every VC and transceiver FIFO of the chip draws its storage from one
//! pooled [`FlitArena`], so moving a flit is a copy between two ring
//! slots of the same slab.

mod bus_phase;
mod injection;
mod router_phase;
mod snapshot;

use std::collections::VecDeque;

use nim_obs::{Category, EventData, Obs};
use nim_topology::{ChipLayout, RouteMap};
use nim_types::{Coord, Cycle, Dir, NetworkConfig, PacketId};

use crate::dtdma::{BusStats, DtdmaBus, Iface};
use crate::packet::{Delivered, Flit, FlitArena, SendRequest};
use crate::router::Router;
use crate::routing::VerticalMode;
use crate::stats::NetworkStats;

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

/// One movable head flit found during a router's single input scan,
/// with its route already computed (look-ahead routing runs once per
/// flit instead of once per output port probed).
#[derive(Clone, Copy, Debug)]
struct Candidate {
    /// `in_dir * vcs + vc`, the round-robin arbitration slot.
    slot: u16,
    /// Output port the flit requests.
    out: Dir,
    flit: Flit,
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
    buses: Vec<DtdmaBus>,
    /// Bus index at each node position, if the node is a pillar node.
    bus_of_node: Vec<Option<u16>>,
    injectors: Vec<Injector>,
    outbox: Vec<VecDeque<Delivered>>,
    delivered_nodes: Vec<u32>,
    in_delivered: Vec<bool>,
    in_dirty: Vec<bool>,
    in_inj: Vec<bool>,
    /// Buses with at least one queued flit (the pillar analogue of the
    /// router dirty list).
    bus_active: Vec<u16>,
    in_bus_active: Vec<bool>,
    /// Pooled backing store for every VC and transceiver FIFO.
    arena: FlitArena,
    /// Pillar transceiver interfaces, indexed `bus * layers + layer`.
    ifaces: Vec<Iface>,
    /// Routers with buffered flits.
    dirty: Vec<u32>,
    /// Nodes with packets pending injection.
    inj_active: Vec<u32>,
    /// Retired work lists, kept to reuse their capacity each cycle.
    dirty_scratch: Vec<u32>,
    inj_scratch: Vec<u32>,
    cand_scratch: Vec<Candidate>,
    bus_scratch: Vec<u16>,
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
    pub fn new(layout: &ChipLayout, cfg: &NetworkConfig, mode: VerticalMode) -> Self {
        let vcs = cfg.vcs_per_port as usize;
        let depth = cfg.vc_depth_flits as usize;
        let n = layout.num_nodes();
        let mut arena = FlitArena::default();
        let mut routers = Vec::with_capacity(n);
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
            routers.push(Router::new(&mut arena, c, &dirs, &dirs, vcs, depth));
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
            in_bus_active: vec![false; buses.len()],
            routers,
            buses,
            bus_of_node,
            injectors: vec![Injector::default(); n],
            outbox: vec![VecDeque::new(); n],
            delivered_nodes: Vec::new(),
            in_delivered: vec![false; n],
            in_dirty: vec![false; n],
            in_inj: vec![false; n],
            bus_active: Vec::new(),
            arena,
            ifaces,
            dirty: Vec::new(),
            inj_active: Vec::new(),
            dirty_scratch: Vec::new(),
            inj_scratch: Vec::new(),
            cand_scratch: Vec::new(),
            bus_scratch: Vec::new(),
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
        self.mark_inj(node);
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
        self.outbox[idx].pop_front()
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
        !self.delivered_nodes.is_empty()
    }

    /// Drains all delivered packets into `buf` (in node order, then
    /// arrival order per node), touching only the nodes that actually
    /// received something.
    pub fn drain_delivered_into(&mut self, buf: &mut Vec<Delivered>) {
        // Single receiver — the common case when draining every cycle —
        // needs no sort.
        if let [n] = self.delivered_nodes[..] {
            self.delivered_nodes.clear();
            self.in_delivered[n as usize] = false;
            buf.extend(self.outbox[n as usize].drain(..));
            return;
        }
        let mut nodes = std::mem::take(&mut self.delivered_nodes);
        nodes.sort_unstable();
        for &n in &nodes {
            self.in_delivered[n as usize] = false;
            buf.extend(self.outbox[n as usize].drain(..));
        }
        nodes.clear();
        self.delivered_nodes = nodes;
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

    #[inline]
    fn mark_dirty(&mut self, node: usize) {
        if !self.in_dirty[node] {
            self.in_dirty[node] = true;
            self.dirty.push(node as u32);
        }
    }

    #[inline]
    fn mark_inj(&mut self, node: usize) {
        if !self.in_inj[node] {
            self.in_inj[node] = true;
            self.inj_active.push(node as u32);
        }
    }

    #[inline]
    fn mark_bus(&mut self, bus: usize) {
        if !self.in_bus_active[bus] {
            self.in_bus_active[bus] = true;
            self.bus_active.push(bus as u16);
        }
    }
}

#[cfg(test)]
#[path = "../network_tests.rs"]
mod tests;

//! The seam between protocol decisions and the simulation fabric.
//!
//! The L2 protocol engine ([`Engine`](crate::protocol::Engine)) never
//! touches [`Network`] or the timed-event heap directly: every packet
//! send, every scheduled latency, and every shared-resource claim goes
//! through the [`Fabric`] trait. Two implementations exist:
//!
//! * [`SimFabric`] — the real thing: the cycle-accurate 3D NoC, the
//!   timed-event heap, the contention-aware [`timing`](crate::timing)
//!   models, and the observability handle.
//! * [`TestFabric`] — a recording double for unit tests: sends and
//!   scheduled events land in inspectable queues, resource claims use
//!   the same timing models, and no network is ever constructed.
//!
//! This seam is what makes the protocol transitions unit-testable and
//! is the hook for alternative execution substrates: [`SimFabric`] can
//! swap its flit-level network for an analytic latency model
//! ([`FabricKind::LatencyTable`] / [`FabricKind::Ideal`]) without the
//! protocol code changing.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use nim_noc::{zero_load_path, Network, SendRequest};
use nim_obs::{Category, EventData, Obs};
use nim_topology::{MeshTopology, Topology};
use nim_types::codec::{ByteReader, ByteWriter, Checkpoint, CodecError};
use nim_types::{ClusterId, Coord, Cycle, NetworkConfig, PacketId, PillarId};

use crate::timing::{Banks, MemoryChannels, TagArrays};
use crate::token::{TimedEvent, Token};

// Protocol code imports the passive message types through this seam so
// `protocol.rs` never names the `nim_noc` crate directly. The
// queue/service delay split rides along for latency attribution.
pub(crate) use crate::timing::ClaimedDelay;
pub(crate) use nim_noc::{Delivered, TrafficClass};

/// Everything the protocol engine may ask of the simulation substrate.
///
/// The methods are deliberately narrow: inject one packet, schedule one
/// timed event, claim one shared resource (tag array, data bank, DRAM
/// channel) and learn when it completes, and reach the observability
/// handle. Protocol handlers hold no other channel to the outside
/// world, so swapping the substrate (a test double, or a modeled
/// fabric) cannot change protocol behavior.
pub(crate) trait Fabric {
    /// Injects one packet into the interconnect; `token` comes back via
    /// the delivery path when the packet reaches `dst`.
    fn send(
        &mut self,
        src: Coord,
        dst: Coord,
        class: TrafficClass,
        flits: u32,
        token: Token,
        via: Option<PillarId>,
    );

    /// Schedules `ev` to fire `delay` cycles after `now`. Events due the
    /// same cycle fire in scheduling order.
    fn schedule(&mut self, now: Cycle, delay: u64, ev: TimedEvent);

    /// Claims `cluster`'s tag array for one probe; returns the latency
    /// until the lookup completes, split into queueing and service.
    fn tag_delay(&mut self, cluster: ClusterId, now: Cycle) -> ClaimedDelay;

    /// Claims the data bank at node index `node` for one access; returns
    /// the latency until it completes, split into queueing and service.
    /// `write` distinguishes stores/fills/migration absorbs from reads
    /// in the trace.
    fn bank_delay(&mut self, node: usize, now: Cycle, write: bool) -> ClaimedDelay;

    /// Claims memory controller `mc`'s DRAM channel; returns the
    /// latency until the DRAM access completes, split into bandwidth
    /// queueing and the DRAM access itself.
    fn memory_delay(&mut self, mc: usize, now: Cycle) -> ClaimedDelay;

    /// The observability handle protocol code emits events and metrics
    /// through (disabled by default: one branch per site).
    fn obs(&self) -> &Obs;
}

/// Which interconnect substrate a run simulates. Selected at build time
/// ([`SystemBuilder::fabric`](crate::SystemBuilder::fabric)); the
/// protocol engine cannot tell them apart.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum FabricKind {
    /// The cycle-accurate flit-level NoC: wormhole meshes, virtual
    /// channels, switch arbitration, dTDMA pillar buses (the default).
    #[default]
    Sim,
    /// Analytic latency-table fabric: every packet's latency comes from
    /// the validated zero-load model ([`nim_noc::zero_load_path`]) with
    /// hop costs precomputed per topology, plus a per-pillar ready-at
    /// table that serialises dTDMA grants — no per-flit simulation.
    /// Mesh-link contention is not modeled.
    LatencyTable,
    /// Ideal contention-free fabric: pure zero-load latency for every
    /// packet, with no shared-resource state at all. The upper bound a
    /// real interconnect is measured against.
    Ideal,
}

impl FabricKind {
    /// Every kind, in CLI listing order.
    pub const ALL: [FabricKind; 3] = [FabricKind::Sim, FabricKind::LatencyTable, FabricKind::Ideal];

    /// The CLI-facing name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            FabricKind::Sim => "sim",
            FabricKind::LatencyTable => "latency-table",
            FabricKind::Ideal => "ideal",
        }
    }

    /// Parses a CLI-facing name; the unknown input comes back as `Err`.
    ///
    /// # Errors
    ///
    /// Returns the input string if it names no fabric kind.
    pub fn parse(s: &str) -> Result<Self, &str> {
        Self::ALL.into_iter().find(|k| k.name() == s).ok_or(s)
    }
}

impl std::fmt::Display for FabricKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The analytic timing engine behind [`FabricKind::LatencyTable`] and
/// [`FabricKind::Ideal`]: zero-load path costs from the topology, plus
/// (latency-table only) a per-pillar ready-at table that replays the
/// dTDMA bus's serialisation — the dominant shared resource in the
/// paper's design — without simulating flits.
#[derive(Debug)]
pub(crate) struct LatencyModel {
    topo: MeshTopology,
    router_latency: u64,
    bus_k: u64,
    /// Earliest cycle each pillar's bus can issue its next grant. Empty
    /// in the ideal fabric, which models no contention at all.
    ready_at: Vec<u64>,
}

impl LatencyModel {
    /// A latency-table model (pillar serialisation on) for `topo`.
    pub(crate) fn latency_table(topo: MeshTopology, net: &NetworkConfig) -> Self {
        let pillars = topo.num_pillars() as usize;
        Self::build(topo, net, vec![0; pillars])
    }

    /// An ideal contention-free model for `topo`.
    pub(crate) fn ideal(topo: MeshTopology, net: &NetworkConfig) -> Self {
        Self::build(topo, net, Vec::new())
    }

    fn build(topo: MeshTopology, net: &NetworkConfig, ready_at: Vec<u64>) -> Self {
        Self {
            topo,
            router_latency: u64::from(net.router_latency),
            bus_k: u64::from(net.bus_cycles_per_flit()),
            ready_at,
        }
    }
}

/// A delivery synthesized by the [`LatencyModel`], ordered by
/// `(due, seq)` so same-cycle deliveries pop in send order — the same
/// tie-break the timed-event heap uses.
#[derive(Debug)]
struct Modeled {
    due: u64,
    seq: u64,
    delivery: Delivered,
}

impl PartialEq for Modeled {
    fn eq(&self, other: &Self) -> bool {
        (self.due, self.seq) == (other.due, other.seq)
    }
}
impl Eq for Modeled {}
impl PartialOrd for Modeled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Modeled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

/// The real fabric: the 3D NoC, the timed-event heap, and the shared
/// resource timing models, owned together so the run loop in
/// [`System`](crate::System) can drive phases while protocol code stays
/// behind the [`Fabric`] trait.
///
/// With a [`LatencyModel`] attached, sends bypass the flit-level
/// network entirely: each packet's delivery is computed analytically at
/// injection and queued on the modeled-delivery heap, which the run
/// loop drains alongside network deliveries. The network object remains
/// the clock owner but never carries traffic, so its statistics stay
/// zero under modeled fabrics.
#[derive(Debug)]
pub(crate) struct SimFabric {
    /// The cycle-accurate 3D mesh + dTDMA pillar network.
    pub(crate) net: Network,
    /// Timed events, keyed by `(due_cycle, sequence)` so same-cycle
    /// events fire in scheduling order.
    pub(crate) events: BinaryHeap<Reverse<(u64, u64, TimedEvent)>>,
    next_seq: u64,
    /// `Some` for modeled fabrics; `None` runs the flit-level network.
    model: Option<LatencyModel>,
    /// Deliveries synthesized by the model, due at `Modeled::due`.
    modeled: BinaryHeap<Reverse<Modeled>>,
    modeled_seq: u64,
    tags: TagArrays,
    banks: Banks,
    memory: MemoryChannels,
    obs: Obs,
}

impl SimFabric {
    pub(crate) fn new(
        net: Network,
        model: Option<LatencyModel>,
        tags: TagArrays,
        banks: Banks,
        memory: MemoryChannels,
        obs: Obs,
    ) -> Self {
        Self {
            net,
            events: BinaryHeap::new(),
            next_seq: 0,
            model,
            modeled: BinaryHeap::new(),
            modeled_seq: 0,
            tags,
            banks,
            memory,
            obs,
        }
    }

    /// Accesses each bank performed so far (node-indexed), for
    /// activity-driven power and thermal analysis.
    pub(crate) fn bank_access_counts(&self) -> &[u64] {
        self.banks.access_counts()
    }

    /// Whether any modeled delivery is still queued (always `false`
    /// under [`FabricKind::Sim`]).
    pub(crate) fn has_modeled(&self) -> bool {
        !self.modeled.is_empty()
    }

    /// Pops the earliest modeled delivery if it is due at or before
    /// `now`.
    pub(crate) fn pop_modeled(&mut self, now: u64) -> Option<Delivered> {
        if self.modeled.peek().is_some_and(|Reverse(m)| m.due <= now) {
            self.modeled.pop().map(|Reverse(m)| m.delivery)
        } else {
            None
        }
    }

    /// Computes one packet's delivery analytically and queues it.
    fn send_modeled(
        &mut self,
        src: Coord,
        dst: Coord,
        class: TrafficClass,
        flits: u32,
        token: Token,
        via: Option<PillarId>,
    ) {
        let model = self.model.as_mut().expect("modeled send requires a model");
        let now = self.net.now();
        let path = zero_load_path(
            &model.topo,
            src,
            dst,
            via,
            flits,
            model.router_latency,
            model.bus_k,
        );
        let mut latency = path.latency;
        let mut bus_wait = path.bus_wait;
        if let Some(p) = path.pillar {
            if let Some(slot) = model.ready_at.get_mut(p.0 as usize) {
                // The head flit reaches the pillar's transceiver
                // `bus_enqueue` cycles after the send and becomes
                // grant-eligible one cycle later; an earlier packet's
                // serialisation window pushes the grant (and the whole
                // delivery) back by `delta`, which the tail flit
                // experiences as extra bus wait.
                let uncontended = now.0 + path.bus_enqueue + 1;
                let grant = uncontended.max(*slot);
                let delta = grant - uncontended;
                latency += delta;
                bus_wait = bus_wait.saturating_add(u32::try_from(delta).unwrap_or(u32::MAX));
                *slot = grant + u64::from(flits) * model.bus_k;
            }
        }
        self.modeled_seq += 1;
        let due = now.0 + latency;
        self.modeled.push(Reverse(Modeled {
            due,
            seq: self.modeled_seq,
            delivery: Delivered {
                packet: PacketId(self.modeled_seq),
                src,
                dst,
                class,
                token: token.encode(),
                injected: now,
                delivered: Cycle(due),
                hops: path.hops,
                bus_wait,
            },
        }));
    }
}

impl Checkpoint for SimFabric {
    fn save(&self, w: &mut ByteWriter) {
        self.net.save(w);
        // The heaps iterate in arbitrary order; sort by the unique
        // (due, seq) key for a canonical encoding.
        let mut evs: Vec<(u64, u64, TimedEvent)> =
            self.events.iter().map(|Reverse(t)| *t).collect();
        evs.sort_unstable_by_key(|&(due, seq, _)| (due, seq));
        w.u32(evs.len() as u32);
        for (due, seq, ev) in &evs {
            w.u64(*due);
            w.u64(*seq);
            ev.save(w);
        }
        w.u64(self.next_seq);
        match &self.model {
            None => w.u8(0),
            Some(m) => {
                w.u8(1);
                w.u64_slice(&m.ready_at);
            }
        }
        let mut modeled: Vec<&Modeled> = self.modeled.iter().map(|Reverse(m)| m).collect();
        modeled.sort_unstable_by_key(|m| (m.due, m.seq));
        w.u32(modeled.len() as u32);
        for m in modeled {
            w.u64(m.due);
            w.u64(m.seq);
            m.delivery.save(w);
        }
        w.u64(self.modeled_seq);
        self.tags.save(w);
        self.banks.save(w);
        self.memory.save(w);
    }

    fn restore(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        self.net.restore(r)?;
        self.events.clear();
        for _ in 0..r.u32()? {
            let due = r.u64()?;
            let seq = r.u64()?;
            self.events
                .push(Reverse((due, seq, TimedEvent::restore(r)?)));
        }
        self.next_seq = r.u64()?;
        match (r.u8()?, &mut self.model) {
            (0, None) => {}
            (1, Some(m)) => {
                let ready = r.u64_vec()?;
                if ready.len() != m.ready_at.len() {
                    return Err(CodecError::Corrupt("fabric model mismatch"));
                }
                m.ready_at = ready;
            }
            (0 | 1, _) => return Err(CodecError::Corrupt("fabric model mismatch")),
            _ => return Err(CodecError::Corrupt("bad fabric model tag")),
        }
        self.modeled.clear();
        for _ in 0..r.u32()? {
            let due = r.u64()?;
            let seq = r.u64()?;
            self.modeled.push(Reverse(Modeled {
                due,
                seq,
                delivery: Delivered::restore(r)?,
            }));
        }
        self.modeled_seq = r.u64()?;
        self.tags.restore(r)?;
        self.banks.restore(r)?;
        self.memory.restore(r)
    }
}

impl Fabric for SimFabric {
    fn send(
        &mut self,
        src: Coord,
        dst: Coord,
        class: TrafficClass,
        flits: u32,
        token: Token,
        via: Option<PillarId>,
    ) {
        if self.model.is_some() {
            self.send_modeled(src, dst, class, flits, token, via);
            return;
        }
        self.net.send(SendRequest {
            src,
            dst,
            via,
            class,
            flits,
            token: token.encode(),
        });
    }

    fn schedule(&mut self, now: Cycle, delay: u64, ev: TimedEvent) {
        self.next_seq += 1;
        self.events
            .push(Reverse((now.0 + delay, self.next_seq, ev)));
    }

    fn tag_delay(&mut self, cluster: ClusterId, now: Cycle) -> ClaimedDelay {
        self.tags.claim(cluster, now)
    }

    fn bank_delay(&mut self, node: usize, now: Cycle, write: bool) -> ClaimedDelay {
        self.obs.emit(Category::Bank, || EventData::BankAccess {
            node: node as u32,
            write,
        });
        self.banks.claim(node, now)
    }

    fn memory_delay(&mut self, mc: usize, now: Cycle) -> ClaimedDelay {
        self.memory.claim(mc, now)
    }

    fn obs(&self) -> &Obs {
        &self.obs
    }
}

/// A recording test double: protocol transitions run against real
/// timing models, but packets land in [`TestFabric::sent`] and timed
/// events in [`TestFabric::events`] instead of a network. Tests pump
/// both queues by hand (or via the helpers in the protocol unit tests)
/// to walk a transaction through its whole lifecycle without a NoC.
#[cfg(test)]
#[derive(Debug)]
pub(crate) struct TestFabric {
    /// Every packet sent, in order.
    pub(crate) sent: Vec<SendRequest>,
    /// Scheduled events, keyed like the real heap.
    pub(crate) events: BinaryHeap<Reverse<(u64, u64, TimedEvent)>>,
    next_seq: u64,
    tags: TagArrays,
    banks: Banks,
    memory: MemoryChannels,
    obs: Obs,
}

#[cfg(test)]
impl TestFabric {
    pub(crate) fn new(clusters: usize, nodes: usize, controllers: usize) -> Self {
        // The paper's Table 4 latencies, so unit-test delays line up
        // with what the real system charges.
        let cfg = nim_types::SystemConfig::default();
        Self {
            sent: Vec::new(),
            events: BinaryHeap::new(),
            next_seq: 0,
            tags: TagArrays::new(clusters, u64::from(cfg.l2.tag_latency)),
            banks: Banks::new(nodes, u64::from(cfg.l2.bank_latency)),
            memory: MemoryChannels::new(
                controllers.max(1),
                u64::from(cfg.memory_interval),
                u64::from(cfg.memory_latency),
            ),
            obs: Obs::disabled(),
        }
    }

    /// Pops the earliest scheduled event, if any.
    pub(crate) fn pop_event(&mut self) -> Option<(u64, TimedEvent)> {
        self.events.pop().map(|Reverse((due, _, ev))| (due, ev))
    }

    /// Drains and returns everything sent so far.
    pub(crate) fn take_sent(&mut self) -> Vec<SendRequest> {
        std::mem::take(&mut self.sent)
    }
}

#[cfg(test)]
impl Fabric for TestFabric {
    fn send(
        &mut self,
        src: Coord,
        dst: Coord,
        class: TrafficClass,
        flits: u32,
        token: Token,
        via: Option<PillarId>,
    ) {
        self.sent.push(SendRequest {
            src,
            dst,
            via,
            class,
            flits,
            token: token.encode(),
        });
    }

    fn schedule(&mut self, now: Cycle, delay: u64, ev: TimedEvent) {
        self.next_seq += 1;
        self.events
            .push(Reverse((now.0 + delay, self.next_seq, ev)));
    }

    fn tag_delay(&mut self, cluster: ClusterId, now: Cycle) -> ClaimedDelay {
        self.tags.claim(cluster, now)
    }

    fn bank_delay(&mut self, node: usize, now: Cycle, _write: bool) -> ClaimedDelay {
        self.banks.claim(node, now)
    }

    fn memory_delay(&mut self, mc: usize, now: Cycle) -> ClaimedDelay {
        self.memory.claim(mc, now)
    }

    fn obs(&self) -> &Obs {
        &self.obs
    }
}

//! The router phase: switch allocation and flit traversal for every
//! router holding flits, in node-index order.
//!
//! A mesh hop can make a router dirty mid-phase; if it is visited later in
//! the same phase its just-arrived flit, stamped `arrived == now`, cannot
//! move, so the visit changes nothing.

use nim_obs::{Category, EventData};
use nim_types::{Coord, Cycle, Dir};

use crate::bitset::Bits;
use crate::packet::{Delivered, Flit};
use crate::router::{port_slots, Hold};

use super::{c3, Network};

impl Network {
    pub(super) fn router_phase(&mut self, now: Cycle) {
        if self.dirty.is_empty() {
            return;
        }
        for w in 0..self.dirty.num_words() {
            for b in Bits(self.dirty.word(w)) {
                self.process_router(w * 64 + b, now);
            }
        }
    }

    /// Switch allocation for one router. One walk over the VCs that hold
    /// flits turns every movable head flit into a request bit on the
    /// output its VC's stored route names; then every output that is
    /// requested or held arbitrates, in port order. Moves performed while
    /// an output is served only ever change the fronts of inputs recorded
    /// in `used`, which later outputs skip, so the requests stay exact.
    fn process_router(&mut self, n: usize, now: Cycle) {
        let r = &self.routers[n];
        let mut requests = [0u64; Dir::COUNT];
        let mut outputs = r.held_mask;
        for slot in Bits(r.live) {
            let vc = self.vc(n, slot);
            let front = vc.front(&self.arena).expect("live VC holds a flit");
            if front.kind.is_head() && front.arrived.0 + self.router_latency <= now.0 {
                let o = vc.route.index();
                requests[o] |= 1 << slot;
                outputs |= 1 << o;
            }
        }
        let mut used = 0u64;
        for o in Bits(u64::from(outputs & r.ports)) {
            self.process_output(n, Dir::ALL[o], now, &mut used, requests[o]);
        }
    }

    /// Switch allocation and traversal for one output port of one router.
    /// `requests` holds the slots of the head flits routed to it; `used`
    /// the slots of every input that already moved a flit this cycle.
    fn process_output(&mut self, n: usize, out: Dir, now: Cycle, used: &mut u64, requests: u64) {
        let oi = out.index();
        let vcs = self.vcs;
        // An output already claimed by a packet serves only that packet.
        if let Some(hold) = self.routers[n].held[oi] {
            let slot = hold.in_dir * vcs + hold.vc;
            if *used & (1 << slot) != 0 {
                return;
            }
            let Some(&front) = self.vc(n, slot).front(&self.arena) else {
                return;
            };
            if front.pkt != hold.pkt || front.arrived.0 + self.router_latency > now.0 {
                return;
            }
            if self.try_move(n, slot, out, &front, now) {
                *used |= port_slots(hold.in_dir, vcs);
                if front.kind.is_tail() {
                    self.routers[n].set_hold(oi, None);
                }
            } else {
                self.stats.switch_contention += 1;
            }
            return;
        }
        // Free output: round-robin over head flits requesting it — the
        // first eligible slot at or after the pointer, else the first.
        let eligible = requests & !*used;
        if eligible == 0 {
            return;
        }
        self.stats.switch_contention += u64::from(eligible.count_ones() - 1);
        let rrp = self.routers[n].rr[oi];
        let from_rr = eligible & (u64::MAX << rrp);
        let slot = if from_rr != 0 { from_rr } else { eligible }.trailing_zeros() as usize;
        let front = *self
            .vc(n, slot)
            .front(&self.arena)
            .expect("requesting VC holds its head");
        let in_dir = slot / vcs;
        if self.try_move(n, slot, out, &front, now) {
            *used |= port_slots(in_dir, vcs);
            if !front.kind.is_tail() {
                let hold = Hold {
                    pkt: front.pkt,
                    in_dir,
                    vc: slot % vcs,
                };
                self.routers[n].set_hold(oi, Some(hold));
            }
            self.routers[n].rr[oi] = ((slot + 1) % (Dir::COUNT * vcs)) as u16;
        } else {
            self.stats.switch_contention += 1;
        }
    }

    /// Attempts the actual flit traversal of the front flit of VC `slot`.
    /// Returns `false` when downstream has no space or no free VC
    /// (speculation failure — retry next cycle).
    fn try_move(&mut self, n: usize, slot: usize, out: Dir, front: &Flit, now: Cycle) -> bool {
        match out {
            Dir::Local => {
                let f = self.vc_pop(n, slot);
                self.eject(n, f, now);
                true
            }
            Dir::Vertical => {
                // The vertical move fills this pillar node's own
                // transceiver interface; the bus phase drains it.
                let bus_idx =
                    self.bus_of_node[n].expect("vertical output on non-pillar node") as usize;
                let iface = self.iface_ix(bus_idx, self.routers[n].coord.layer);
                if self.ifaces[iface].q.is_full() {
                    return false;
                }
                let mut f = self.vc_pop(n, slot);
                f.arrived = now;
                self.ifaces[iface].q.push_back(&mut self.arena, f);
                // Interfaces only fill during the router phase, so the
                // peak is the total right after an enqueue.
                let queued = self.bus_queued(bus_idx) as u64;
                let stats = &mut self.buses[bus_idx].stats;
                stats.peak_queued = stats.peak_queued.max(queued);
                self.bus_active.insert(bus_idx);
                self.count_hop(n, &f);
                true
            }
            _ => {
                let c = self.routers[n].coord;
                let dest = match out {
                    Dir::Up => Coord::new(c.x, c.y, c.layer + 1),
                    Dir::Down => Coord::new(c.x, c.y, c.layer - 1),
                    d => {
                        let (x, y) = d
                            .step(c.x, c.y, self.layout.width(), self.layout.height())
                            .expect("routing stays on the mesh");
                        Coord::new(x, y, c.layer)
                    }
                };
                let dest_idx = self.layout.node_index(dest);
                debug_assert_ne!(dest_idx, n);
                let ii = out.opposite().index();
                let dest_router = &self.routers[dest_idx];
                debug_assert!(dest_router.has_port(ii), "link implies input port");
                let dvc = if front.kind.is_head() {
                    dest_router.free_vc(ii, self.vcs)
                } else {
                    dest_router.continuation_vc(ii, self.vcs, self.router_vcs(dest_idx), front.pkt)
                };
                let Some(dvc) = dvc else {
                    return false;
                };
                let mut f = self.vc_pop(n, slot);
                f.arrived = now;
                f.hops += 1;
                self.vc_push(dest_idx, ii * self.vcs + dvc, f);
                self.count_hop(n, &f);
                true
            }
        }
    }

    /// Records a flit leaving router `n` by a mesh or vertical hop.
    fn count_hop(&mut self, n: usize, f: &Flit) {
        self.stats.flit_hops += 1;
        self.stats.flit_hops_by_class[f.class.index()] += 1;
        self.traversals[n] += 1;
        let at = self.routers[n].coord;
        self.obs.emit(Category::Hop, || EventData::FlitHop {
            at: c3(at),
            class: f.class.name(),
        });
    }

    /// A flit left the network at node `n`'s local port; its tail
    /// completes the packet's delivery.
    fn eject(&mut self, n: usize, f: Flit, now: Cycle) {
        self.flits_in_flight -= 1;
        if !f.kind.is_tail() {
            return;
        }
        let d = Delivered {
            packet: f.pkt,
            src: f.src,
            dst: f.dst,
            class: f.class,
            token: f.token,
            injected: f.injected,
            delivered: now,
            hops: f.hops,
            bus_wait: f.bus_wait,
        };
        self.stats.record_delivery(&d);
        self.obs
            .emit(Category::Packet, || EventData::PacketDeliver {
                packet: d.packet.0,
                dst: c3(d.dst),
                latency: d.latency(),
                hops: u32::from(d.hops),
            });
        self.outbox[n].push_back(d);
        self.delivered.insert(n);
    }
}

//! The router phase: switch allocation and flit traversal for every
//! active router, in node-index order.
//!
//! A mesh hop marks the destination router dirty for the *next* cycle:
//! the phase works on a snapshot of the dirty list, and the just-arrived
//! flit is stamped `arrived == now`, so it cannot move again this cycle.

use nim_obs::{Category, EventData};
use nim_types::{Coord, Cycle, Dir};

use crate::packet::{Delivered, Flit};
use crate::router::Hold;
use crate::routing::route;

use super::{c3, Candidate, Network};

impl Network {
    pub(super) fn router_phase(&mut self, now: Cycle) {
        if self.dirty.is_empty() {
            return;
        }
        let mut work = std::mem::replace(&mut self.dirty, std::mem::take(&mut self.dirty_scratch));
        work.sort_unstable();
        for &n in &work {
            self.in_dirty[n as usize] = false;
        }
        for &n in &work {
            let n = n as usize;
            if self.routers[n].occupancy == 0 {
                continue;
            }
            self.process_router(n, now);
            if self.routers[n].occupancy > 0 {
                self.mark_dirty(n);
            }
        }
        work.clear();
        self.dirty_scratch = work;
    }

    /// Switch allocation for one router: a single scan over the input VCs
    /// collects every movable head flit (routing each once), then every
    /// output port arbitrates among its candidates in round-robin slot
    /// order. Moves performed while an output is served only ever change
    /// the fronts of inputs recorded in `used_input`, which later outputs
    /// skip, so the pre-collected candidates stay exact.
    fn process_router(&mut self, n: usize, now: Cycle) {
        let vcs = self.vcs;
        let at = self.routers[n].coord;
        let mut cands = std::mem::take(&mut self.cand_scratch);
        debug_assert!(cands.is_empty());
        for (in_dir, input) in self.routers[n].inputs.iter().enumerate() {
            let Some(port) = input else { continue };
            for vc in 0..vcs {
                let Some(front) = port.vc(vc).front(&self.arena) else {
                    continue;
                };
                if front.arrived.0 + self.router_latency > now.0 || !front.kind.is_head() {
                    continue;
                }
                cands.push(Candidate {
                    slot: (in_dir * vcs + vc) as u16,
                    out: route(
                        &self.layout,
                        &self.routes,
                        self.mode,
                        at,
                        front.dst,
                        front.via,
                    ),
                    flit: *front,
                });
            }
        }
        let mut used_input = [false; Dir::COUNT];
        for out in Dir::ALL {
            if self.routers[n].has_output(out) {
                self.process_output(n, out, now, &mut used_input, &cands);
            }
        }
        cands.clear();
        self.cand_scratch = cands;
    }

    /// Switch allocation and traversal for one output port of one router.
    fn process_output(
        &mut self,
        n: usize,
        out: Dir,
        now: Cycle,
        used_input: &mut [bool; Dir::COUNT],
        cands: &[Candidate],
    ) {
        let oi = out.index();
        // An output already claimed by a packet serves only that packet.
        if let Some(hold) = self.routers[n].held[oi] {
            if used_input[hold.in_dir] {
                return;
            }
            let front = self.routers[n].inputs[hold.in_dir]
                .as_ref()
                .and_then(|p| p.vc(hold.vc).front(&self.arena))
                .copied();
            let Some(front) = front else { return };
            if front.pkt != hold.pkt || front.arrived.0 + self.router_latency > now.0 {
                return;
            }
            if self.try_move(n, hold.in_dir, hold.vc, out, &front, now) {
                used_input[hold.in_dir] = true;
                if front.kind.is_tail() {
                    self.routers[n].held[oi] = None;
                }
            } else {
                self.stats.switch_contention += 1;
            }
            return;
        }
        // Free output: round-robin over head flits requesting it.
        let vcs = self.vcs;
        let total = (Dir::COUNT * vcs) as u16;
        let rrp = self.routers[n].rr[oi];
        let mut winner: Option<Candidate> = None;
        let mut best_rank = u16::MAX;
        let mut eligible = 0u64;
        for c in cands {
            if c.out != out || used_input[usize::from(c.slot) / vcs] {
                continue;
            }
            eligible += 1;
            let rank = (c.slot + total - rrp) % total;
            if rank < best_rank {
                best_rank = rank;
                winner = Some(*c);
            }
        }
        if eligible > 1 {
            self.stats.switch_contention += eligible - 1;
        }
        let Some(c) = winner else {
            return;
        };
        let (in_dir, vc) = (usize::from(c.slot) / vcs, usize::from(c.slot) % vcs);
        if self.try_move(n, in_dir, vc, out, &c.flit, now) {
            used_input[in_dir] = true;
            if !c.flit.kind.is_tail() {
                self.routers[n].held[oi] = Some(Hold {
                    pkt: c.flit.pkt,
                    in_dir,
                    vc,
                });
            }
            self.routers[n].rr[oi] = (c.slot + 1) % total;
        } else {
            self.stats.switch_contention += 1;
        }
    }

    /// Attempts the actual flit traversal. Returns `false` when downstream
    /// has no space or no free VC (speculation failure — retry next cycle).
    fn try_move(
        &mut self,
        n: usize,
        in_dir: usize,
        vc: usize,
        out: Dir,
        front: &Flit,
        now: Cycle,
    ) -> bool {
        match out {
            Dir::Local => {
                let f = self.routers[n].inputs[in_dir]
                    .as_mut()
                    .expect("input exists")
                    .vc_mut(vc)
                    .pop(&self.arena)
                    .expect("front checked");
                self.routers[n].occupancy -= 1;
                self.eject(n, f, now);
                true
            }
            Dir::Vertical => {
                // The vertical move fills this pillar node's own
                // transceiver interface; the bus phase drains it.
                let bus_idx =
                    self.bus_of_node[n].expect("vertical output on non-pillar node") as usize;
                let slot = self.iface_ix(bus_idx, self.routers[n].coord.layer);
                if self.ifaces[slot].q.is_full() {
                    return false;
                }
                let mut f = self.routers[n].inputs[in_dir]
                    .as_mut()
                    .expect("input exists")
                    .vc_mut(vc)
                    .pop(&self.arena)
                    .expect("front checked");
                f.arrived = now;
                self.ifaces[slot].q.push_back(&mut self.arena, f);
                // Interfaces only fill during the router phase, so the
                // peak is the total right after an enqueue.
                let queued = self.bus_queued(bus_idx) as u64;
                let stats = &mut self.buses[bus_idx].stats;
                stats.peak_queued = stats.peak_queued.max(queued);
                self.mark_bus(bus_idx);
                self.routers[n].occupancy -= 1;
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
                let dvc = {
                    let port = self.routers[dest_idx].inputs[ii]
                        .as_ref()
                        .expect("link implies input port");
                    if front.kind.is_head() {
                        port.free_vc()
                    } else {
                        port.continuation_vc(front.pkt)
                    }
                };
                let Some(dvc) = dvc else {
                    return false;
                };
                let mut f = self.routers[n].inputs[in_dir]
                    .as_mut()
                    .expect("input exists")
                    .vc_mut(vc)
                    .pop(&self.arena)
                    .expect("front checked");
                f.arrived = now;
                f.hops += 1;
                self.routers[dest_idx].inputs[ii]
                    .as_mut()
                    .expect("checked above")
                    .vc_mut(dvc)
                    .push(&mut self.arena, f);
                self.routers[n].occupancy -= 1;
                self.routers[dest_idx].occupancy += 1;
                self.mark_dirty(dest_idx);
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
        if !self.in_delivered[n] {
            self.in_delivered[n] = true;
            self.delivered_nodes.push(n as u32);
        }
    }
}

//! The dTDMA bus phase: one arbitration round per pillar per cycle.
//!
//! Runs first each tick, so a flit granted the bus (stamped
//! `arrived == now`) cannot also traverse a router in the same cycle.
//!
//! A bus grant moves a flit *between* layers: out of the sending
//! layer's transceiver interface into the destination layer's pillar
//! router.

use nim_obs::{Category, EventData};
use nim_types::{Coord, Cycle, Dir};

use crate::bitset::Bits;

use super::Network;

impl Network {
    pub(super) fn bus_phase(&mut self, now: Cycle) {
        if self.bus_active.is_empty() {
            return;
        }
        for w in 0..self.bus_active.num_words() {
            for b in Bits(self.bus_active.word(w)) {
                self.process_bus(w * 64 + b, now);
            }
        }
    }

    /// One dTDMA arbitration round: at most one flit crosses the bus.
    fn process_bus(&mut self, b: usize, now: Cycle) {
        // A narrow bus is still serialising the previous flit.
        if self.bus_ready_at[b] > now.0 {
            return;
        }
        let layers = self.layout.layers() as usize;
        let mut eligible = 0u64;
        for layer in 0..self.layout.layers() {
            let i = self.iface_ix(b, layer);
            if self.ifaces[i]
                .q
                .front(&self.arena)
                .is_some_and(|f| f.arrived < now)
            {
                eligible += 1;
            }
        }
        if eligible == 0 {
            return;
        }
        let rr = self.buses[b].rr;
        for off in 0..layers {
            let i = (rr + off) % layers;
            let src_iface = self.iface_ix(b, i as u8);
            let front = self.ifaces[src_iface].q.front(&self.arena).copied();
            let Some(front) = front else {
                continue;
            };
            if front.arrived >= now {
                continue;
            }
            let (px, py) = self.buses[b].xy;
            let dest_idx = self.layout.node_index(Coord::new(px, py, front.dst.layer));
            let vi = Dir::Vertical.index();
            let vc_sel = if front.kind.is_head() {
                self.routers[dest_idx].free_vc(vi, self.vcs)
            } else {
                self.ifaces[src_iface].bound_vc.filter(|&v| {
                    self.vc(dest_idx, vi * self.vcs + v)
                        .accepts_continuation(front.pkt)
                })
            };
            let Some(vc) = vc_sel else {
                continue;
            };
            // Multiple transmitters competing for a grant that actually
            // happens is contention; a round where every candidate is
            // VC-blocked is backpressure and counts nowhere.
            if eligible >= 2 {
                self.buses[b].stats.contention_cycles += 1;
                self.obs
                    .emit(Category::Pillar, || EventData::BusContention {
                        pillar: b as u32,
                        waiting: eligible as u32,
                    });
            }
            let mut f = self.ifaces[src_iface]
                .q
                .pop_front(&self.arena)
                .expect("front checked");
            // `arrived` still holds the bus-enqueue stamp: the span up
            // to this grant is time spent waiting for a dTDMA slot.
            f.bus_wait += (now.0 - f.arrived.0) as u32;
            f.arrived = now;
            f.hops += 1;
            self.vc_push(dest_idx, vi * self.vcs + vc, f);
            if self.bus_queued(b) == 0 {
                self.bus_active.remove(b);
            }
            let iface = &mut self.ifaces[src_iface];
            iface.bound_vc = if f.kind.is_tail() {
                None
            } else if f.kind.is_head() {
                Some(vc)
            } else {
                iface.bound_vc
            };
            self.buses[b].stats.transfers += 1;
            self.buses[b].stats.busy_cycles += self.bus_cycles_per_flit;
            self.stats.bus_transfers += 1;
            self.obs.emit(Category::Pillar, || EventData::BusGrant {
                pillar: b as u32,
                from_layer: i as u16,
                to_layer: u16::from(f.dst.layer),
            });
            self.buses[b].rr = (i + 1) % layers;
            self.bus_ready_at[b] = now.0 + self.bus_cycles_per_flit;
            break; // one flit per bus grant
        }
    }
}

//! Snapshot seam for the network: serializing every flit in flight.
//!
//! The network's live state is saved *logically*, not physically: flits
//! are written per (node, input direction, VC), per (bus, layer)
//! transceiver interface, and per-node injection queue — never as raw
//! [`FlitArena`](crate::packet::FlitArena) slabs, so the image does not
//! depend on the arena's slot layout.
//!
//! Restore targets a freshly built [`Network`] with the same layout and
//! configuration; the derived work lists (router dirty list, active
//! injectors, active buses, delivered-node list) are recomputed from the
//! restored queues rather than serialized, and scratch buffers start
//! fresh.

use nim_types::codec::{ByteReader, ByteWriter, Checkpoint, CodecError};
use nim_types::{Coord, Cycle, PacketId, PillarId};

use crate::packet::{Delivered, Flit, FlitKind, SendRequest, TrafficClass};
use crate::router::Hold;
use crate::stats::{LatencyHistogram, NetworkStats};

use super::{Network, Pending};

fn save_coord(w: &mut ByteWriter, c: Coord) {
    w.u8(c.x);
    w.u8(c.y);
    w.u8(c.layer);
}

fn restore_coord(r: &mut ByteReader<'_>) -> Result<Coord, CodecError> {
    Ok(Coord::new(r.u8()?, r.u8()?, r.u8()?))
}

fn save_via(w: &mut ByteWriter, via: Option<PillarId>) {
    match via {
        Some(p) => {
            w.u8(1);
            w.u16(p.0);
        }
        None => w.u8(0),
    }
}

fn restore_via(r: &mut ByteReader<'_>) -> Result<Option<PillarId>, CodecError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(PillarId(r.u16()?))),
        _ => Err(CodecError::Corrupt("bad pillar option tag")),
    }
}

fn restore_class(r: &mut ByteReader<'_>) -> Result<TrafficClass, CodecError> {
    let tag = usize::from(r.u8()?);
    TrafficClass::ALL
        .get(tag)
        .copied()
        .ok_or(CodecError::Corrupt("bad traffic class tag"))
}

fn save_kind(w: &mut ByteWriter, kind: FlitKind) {
    w.u8(match kind {
        FlitKind::Head => 0,
        FlitKind::Body => 1,
        FlitKind::Tail => 2,
        FlitKind::HeadTail => 3,
    });
}

fn restore_kind(r: &mut ByteReader<'_>) -> Result<FlitKind, CodecError> {
    Ok(match r.u8()? {
        0 => FlitKind::Head,
        1 => FlitKind::Body,
        2 => FlitKind::Tail,
        3 => FlitKind::HeadTail,
        _ => return Err(CodecError::Corrupt("bad flit kind tag")),
    })
}

fn save_flit(w: &mut ByteWriter, f: &Flit) {
    w.u64(f.pkt.0);
    save_kind(w, f.kind);
    save_coord(w, f.src);
    save_coord(w, f.dst);
    save_via(w, f.via);
    w.u8(f.class.index() as u8);
    w.u64(f.token);
    w.u64(f.injected.0);
    w.u64(f.arrived.0);
    w.u16(f.hops);
    w.u32(f.bus_wait);
}

fn restore_flit(r: &mut ByteReader<'_>) -> Result<Flit, CodecError> {
    Ok(Flit {
        pkt: PacketId(r.u64()?),
        kind: restore_kind(r)?,
        src: restore_coord(r)?,
        dst: restore_coord(r)?,
        via: restore_via(r)?,
        class: restore_class(r)?,
        token: r.u64()?,
        injected: Cycle(r.u64()?),
        arrived: Cycle(r.u64()?),
        hops: r.u16()?,
        bus_wait: r.u32()?,
    })
}

fn save_stats(w: &mut ByteWriter, s: &NetworkStats) {
    w.u64(s.packets_sent);
    w.u64(s.packets_delivered);
    w.u64(s.total_latency);
    w.u64(s.max_latency);
    w.u64(s.total_hops);
    w.u64(s.flit_hops);
    for arr in [
        &s.flit_hops_by_class,
        &s.delivered_by_class,
        &s.latency_by_class,
    ] {
        for &v in arr {
            w.u64(v);
        }
    }
    w.u64(s.bus_transfers);
    w.u64(s.switch_contention);
    for &b in s.latency_histogram.buckets() {
        w.u64(b);
    }
}

fn restore_stats(r: &mut ByteReader<'_>) -> Result<NetworkStats, CodecError> {
    let mut s = NetworkStats {
        packets_sent: r.u64()?,
        packets_delivered: r.u64()?,
        total_latency: r.u64()?,
        max_latency: r.u64()?,
        total_hops: r.u64()?,
        flit_hops: r.u64()?,
        ..NetworkStats::default()
    };
    for arr in [
        &mut s.flit_hops_by_class,
        &mut s.delivered_by_class,
        &mut s.latency_by_class,
    ] {
        for v in arr.iter_mut() {
            *v = r.u64()?;
        }
    }
    s.bus_transfers = r.u64()?;
    s.switch_contention = r.u64()?;
    let mut buckets = [0u64; 16];
    for b in &mut buckets {
        *b = r.u64()?;
    }
    s.latency_histogram = LatencyHistogram::from_buckets(buckets);
    Ok(s)
}

fn save_pending(w: &mut ByteWriter, p: &Pending) {
    w.u64(p.id.0);
    save_coord(w, p.req.src);
    save_coord(w, p.req.dst);
    save_via(w, p.req.via);
    w.u8(p.req.class.index() as u8);
    w.u32(p.req.flits);
    w.u64(p.req.token);
    w.u32(p.seq);
    w.u64(p.injected.0);
}

fn restore_pending(r: &mut ByteReader<'_>) -> Result<Pending, CodecError> {
    Ok(Pending {
        id: PacketId(r.u64()?),
        req: SendRequest {
            src: restore_coord(r)?,
            dst: restore_coord(r)?,
            via: restore_via(r)?,
            class: restore_class(r)?,
            flits: r.u32()?,
            token: r.u64()?,
        },
        seq: r.u32()?,
        injected: Cycle(r.u64()?),
    })
}

impl Checkpoint for Network {
    fn save(&self, w: &mut ByteWriter) {
        w.u64(self.now.0);
        w.u64(self.next_pkt);
        w.u64(self.flits_in_flight);
        save_stats(w, &self.stats);
        w.u64_slice(&self.traversals);
        w.u64_slice(&self.bus_ready_at);

        // Routers: ports and VC contents in (node, direction, VC) order.
        w.u32(self.routers.len() as u32);
        for router in &self.routers {
            for input in &router.inputs {
                match input {
                    None => w.u8(0),
                    Some(port) => {
                        w.u8(1);
                        w.u8(port.num_vcs() as u8);
                        for v in 0..port.num_vcs() {
                            let vc = port.vc(v);
                            w.opt_u64(vc.owner().map(|p| p.0));
                            w.u16(vc.fifo().len() as u16);
                            for f in vc.fifo().iter(&self.arena) {
                                save_flit(w, f);
                            }
                        }
                    }
                }
            }
            for held in &router.held {
                match held {
                    None => w.u8(0),
                    Some(h) => {
                        w.u8(1);
                        w.u64(h.pkt.0);
                        w.u8(h.in_dir as u8);
                        w.u8(h.vc as u8);
                    }
                }
            }
            for &rr in &router.rr {
                w.u16(rr);
            }
            w.u32(router.occupancy);
        }

        // Injection queues and delivery outboxes, in node order.
        for inj in &self.injectors {
            w.opt_u64(inj.vc.map(|v| v as u64));
            w.u32(inj.queue.len() as u32);
            for p in &inj.queue {
                save_pending(w, p);
            }
        }
        for outbox in &self.outbox {
            w.u32(outbox.len() as u32);
            for d in outbox {
                d.save(w);
            }
        }

        // Buses and their per-layer transceiver interfaces, in (bus,
        // layer) order.
        w.u32(self.buses.len() as u32);
        for (bus, ifaces) in self
            .buses
            .iter()
            .zip(self.ifaces.chunks(self.layout.layers() as usize))
        {
            w.usize(bus.rr);
            w.u64(bus.stats.transfers);
            w.u64(bus.stats.busy_cycles);
            w.u64(bus.stats.contention_cycles);
            w.u64(bus.stats.peak_queued);
            for iface in ifaces {
                w.opt_u64(iface.bound_vc.map(|v| v as u64));
                w.u16(iface.q.len() as u16);
                for f in iface.q.iter(&self.arena) {
                    save_flit(w, f);
                }
            }
        }
    }

    fn restore(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        self.now = Cycle(r.u64()?);
        self.next_pkt = r.u64()?;
        self.flits_in_flight = r.u64()?;
        self.stats = restore_stats(r)?;
        let traversals = r.u64_vec()?;
        if traversals.len() != self.traversals.len() {
            return Err(CodecError::Corrupt("traversal table size mismatch"));
        }
        self.traversals = traversals;
        let bus_ready_at = r.u64_vec()?;
        if bus_ready_at.len() != self.bus_ready_at.len() {
            return Err(CodecError::Corrupt("bus table size mismatch"));
        }
        self.bus_ready_at = bus_ready_at;

        if r.u32()? as usize != self.routers.len() {
            return Err(CodecError::Corrupt("router count mismatch"));
        }
        let mut flit_buf = Vec::new();
        for router in &mut self.routers {
            for input in &mut router.inputs {
                let present = r.u8()? == 1;
                let Some(port) = input.as_mut() else {
                    if present {
                        return Err(CodecError::Corrupt("input port structure mismatch"));
                    }
                    continue;
                };
                if !present {
                    return Err(CodecError::Corrupt("input port structure mismatch"));
                }
                if usize::from(r.u8()?) != port.num_vcs() {
                    return Err(CodecError::Corrupt("VC count mismatch"));
                }
                for v in 0..port.num_vcs() {
                    let owner = r.opt_u64()?.map(PacketId);
                    let count = usize::from(r.u16()?);
                    if count > port.vc(v).fifo().capacity() {
                        return Err(CodecError::Corrupt("VC deeper than its capacity"));
                    }
                    flit_buf.clear();
                    for _ in 0..count {
                        flit_buf.push(restore_flit(r)?);
                    }
                    port.vc_mut(v)
                        .restore_flits(&mut self.arena, &flit_buf, owner);
                }
            }
            for held in &mut router.held {
                *held = match r.u8()? {
                    0 => None,
                    1 => Some(Hold {
                        pkt: PacketId(r.u64()?),
                        in_dir: usize::from(r.u8()?),
                        vc: usize::from(r.u8()?),
                    }),
                    _ => return Err(CodecError::Corrupt("bad hold tag")),
                };
            }
            for rr in &mut router.rr {
                *rr = r.u16()?;
            }
            router.occupancy = r.u32()?;
        }

        for inj in &mut self.injectors {
            inj.vc = r.opt_u64()?.map(|v| v as usize);
            inj.queue.clear();
            for _ in 0..r.u32()? {
                inj.queue.push_back(restore_pending(r)?);
            }
        }
        for outbox in &mut self.outbox {
            outbox.clear();
            for _ in 0..r.u32()? {
                outbox.push_back(Delivered::restore(r)?);
            }
        }

        if r.u32()? as usize != self.buses.len() {
            return Err(CodecError::Corrupt("bus count mismatch"));
        }
        let layers = self.layout.layers() as usize;
        for (bus, ifaces) in self.buses.iter_mut().zip(self.ifaces.chunks_mut(layers)) {
            bus.rr = r.usize()?;
            bus.stats.transfers = r.u64()?;
            bus.stats.busy_cycles = r.u64()?;
            bus.stats.contention_cycles = r.u64()?;
            bus.stats.peak_queued = r.u64()?;
            for iface in ifaces {
                let bound_vc = r.opt_u64()?.map(|v| v as usize);
                let count = usize::from(r.u16()?);
                if count > iface.q.capacity() {
                    return Err(CodecError::Corrupt("interface deeper than its capacity"));
                }
                iface.bound_vc = bound_vc;
                for _ in 0..count {
                    let f = restore_flit(r)?;
                    iface.q.push_back(&mut self.arena, f);
                }
            }
        }

        // Rebuild the derived work lists from the restored queues, in
        // ascending node/bus order (each phase sorts its work list).
        for n in 0..self.routers.len() {
            if self.routers[n].occupancy > 0 {
                self.mark_dirty(n);
            }
        }
        for n in 0..self.injectors.len() {
            if !self.injectors[n].queue.is_empty() {
                self.mark_inj(n);
            }
        }
        for n in 0..self.outbox.len() {
            if !self.outbox[n].is_empty() && !self.in_delivered[n] {
                self.in_delivered[n] = true;
                self.delivered_nodes.push(n as u32);
            }
        }
        for b in 0..self.buses.len() {
            if self.bus_queued(b) > 0 {
                self.mark_bus(b);
            }
        }
        self.obs.set_now(self.now.0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::VerticalMode;
    use nim_topology::ChipLayout;
    use nim_types::SystemConfig;

    fn busy_net() -> (ChipLayout, Network) {
        let cfg = SystemConfig::default();
        let layout = ChipLayout::new(&cfg).unwrap();
        let mut net = Network::new(&layout, &cfg.network, VerticalMode::Pillars);
        // Mixed traffic: multi-flit cross-layer packets (pillar bus in
        // use), same-layer packets, and a backlog that is still mid-
        // injection when we snapshot.
        for i in 0..12u64 {
            let src = layout.coord_of_index((i as usize * 3) % layout.num_nodes());
            let dst = layout.coord_of_index((i as usize * 7 + 5) % layout.num_nodes());
            net.send(SendRequest {
                src,
                dst,
                via: None,
                class: TrafficClass::ALL[(i % 4) as usize],
                flits: 1 + (i % 4) as u32,
                token: i,
            });
        }
        for _ in 0..6 {
            net.tick();
        }
        (layout, net)
    }

    fn drain_and_digest(net: &mut Network) -> (Vec<Delivered>, NetworkStats, Vec<u64>) {
        net.run_until_idle(10_000).expect("network must drain");
        let mut delivered = net.drain_delivered();
        delivered.sort_by_key(|d| d.packet.0);
        (delivered, net.stats().clone(), net.traversals().to_vec())
    }

    #[test]
    fn snapshot_mid_flight_restores_bit_identically() {
        let (layout, mut original) = busy_net();
        let mut w = ByteWriter::new();
        original.save(&mut w);
        let bytes = w.into_bytes();

        let cfg = SystemConfig::default();
        let mut restored = Network::new(&layout, &cfg.network, VerticalMode::Pillars);
        let mut r = ByteReader::new(&bytes);
        restored.restore(&mut r).unwrap();
        assert_eq!(r.remaining(), 0);
        assert_eq!(restored.now(), original.now());

        let a = drain_and_digest(&mut original);
        let b = drain_and_digest(&mut restored);
        assert_eq!(a, b);
    }

    #[test]
    fn truncated_bytes_error_instead_of_panicking() {
        let (_, original) = busy_net();
        let mut w = ByteWriter::new();
        original.save(&mut w);
        let bytes = w.into_bytes();
        let cfg = SystemConfig::default();
        let layout = ChipLayout::new(&cfg).unwrap();
        for cut in [8usize, 100, bytes.len() / 2, bytes.len() - 1] {
            let mut net = Network::new(&layout, &cfg.network, VerticalMode::Pillars);
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(net.restore(&mut r).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn restore_rejects_a_different_topology() {
        let (_, original) = busy_net();
        let mut w = ByteWriter::new();
        original.save(&mut w);
        let bytes = w.into_bytes();
        let mut cfg = SystemConfig::default();
        cfg.network.layers = 1;
        let layout = ChipLayout::new(&cfg).unwrap();
        let mut net = Network::new(&layout, &cfg.network, VerticalMode::Pillars);
        let mut r = ByteReader::new(&bytes);
        assert!(net.restore(&mut r).is_err());
    }
}

//! Virtual channels.
//!
//! Each physical channel of a router has a number of virtual channels
//! (VCs): FIFO flit buffers holding flits of different pending messages
//! (paper §3.2: 3 VCs per physical channel, each one 4-flit message deep).
//! A VC is *owned* by the packet whose head flit allocated it; ownership
//! is released when the tail flit drains, so a VC holds one packet at a
//! time and a packet never interleaves with another inside one VC.
//!
//! Every VC of the chip lives in one network-wide `Vec<Vc>`, indexed
//! `(node * Dir::COUNT + dir) * vcs + vc`; flit storage lives in the
//! network-wide [`FlitArena`]. The `Vc` itself is a small inline record
//! (ring indices, owner, route), and each router summarises its VCs in
//! bitmasks, so a router visit reads only the VCs that hold flits.

use nim_types::{Dir, PacketId};

use crate::packet::{Flit, FlitArena, FlitFifo};

/// One virtual channel: a bounded FIFO owned by at most one packet.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Vc {
    fifo: FlitFifo,
    owner: Option<PacketId>,
    /// Output port the owning packet takes from this router. Look-ahead
    /// routing: computed once, when the head flit enters the VC, and
    /// read by every switch allocation that head then takes part in.
    pub route: Dir,
}

impl Vc {
    /// The slot of a port the router does not have; never pushed to.
    pub(crate) const ABSENT: Vc = Vc {
        fifo: FlitFifo::ABSENT,
        owner: None,
        route: Dir::Local,
    };

    pub(crate) fn new(arena: &mut FlitArena, cap: usize) -> Self {
        assert!(cap >= 1, "VC depth must be at least one flit");
        Self {
            fifo: FlitFifo::new(arena, cap),
            owner: None,
            route: Dir::Local,
        }
    }

    /// Whether a head flit of a *new* packet may allocate this VC.
    #[inline]
    pub(crate) fn is_free(&self) -> bool {
        self.owner.is_none() && self.fifo.is_empty()
    }

    /// Whether a non-head flit of `pkt` may enter (right owner, space left).
    #[inline]
    pub(crate) fn accepts_continuation(&self, pkt: PacketId) -> bool {
        self.owner == Some(pkt) && !self.fifo.is_full()
    }

    /// Pushes a flit. A head flit takes ownership; its caller then
    /// records the packet's [`route`](Self::route).
    ///
    /// # Panics
    ///
    /// Panics (debug) if the push violates ownership or capacity — callers
    /// must check [`is_free`](Self::is_free) /
    /// [`accepts_continuation`](Self::accepts_continuation) first.
    pub(crate) fn push(&mut self, arena: &mut FlitArena, flit: Flit) {
        if flit.kind.is_head() {
            debug_assert!(self.is_free(), "head flit into occupied VC");
            self.owner = Some(flit.pkt);
        } else {
            debug_assert!(
                self.accepts_continuation(flit.pkt),
                "continuation flit into foreign or full VC"
            );
        }
        self.fifo.push_back(arena, flit);
    }

    /// The flit at the head of the FIFO, if any.
    #[inline]
    pub(crate) fn front<'a>(&self, arena: &'a FlitArena) -> Option<&'a Flit> {
        self.fifo.front(arena)
    }

    /// Pops the head flit, releasing ownership if it was the tail.
    pub(crate) fn pop(&mut self, arena: &FlitArena) -> Option<Flit> {
        let flit = self.fifo.pop_front(arena)?;
        if flit.kind.is_tail() {
            debug_assert!(self.fifo.is_empty(), "flits behind a tail");
            self.owner = None;
        }
        Some(flit)
    }

    /// The owning packet, if any (snapshot save).
    #[inline]
    pub(crate) fn owner(&self) -> Option<PacketId> {
        self.owner
    }

    /// The underlying FIFO (snapshot save iterates its flits).
    #[inline]
    pub(crate) fn fifo(&self) -> &FlitFifo {
        &self.fifo
    }

    /// Pushes a flit without ownership bookkeeping and then pins the
    /// owner explicitly — the snapshot-restore path, which rebuilds VCs
    /// that may hold a packet mid-stream (body flits without their head,
    /// so [`Vc::push`]'s head/continuation invariants do not apply).
    pub(crate) fn restore_flits(
        &mut self,
        arena: &mut FlitArena,
        flits: &[Flit],
        owner: Option<PacketId>,
    ) {
        debug_assert!(self.fifo.is_empty() && self.owner.is_none());
        for &f in flits {
            self.fifo.push_back(arena, f);
        }
        self.owner = owner;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlitKind, TrafficClass};
    use crate::router::Router;
    use nim_types::{Coord, Cycle, PacketId};

    fn flit(pkt: u64, kind: FlitKind) -> Flit {
        Flit {
            pkt: PacketId(pkt),
            kind,
            src: Coord::new(0, 0, 0),
            dst: Coord::new(1, 1, 0),
            via: None,
            class: TrafficClass::Data,
            token: 0,
            injected: Cycle::ZERO,
            arrived: Cycle::ZERO,
            hops: 0,
            bus_wait: 0,
        }
    }

    #[test]
    fn ownership_lifecycle() {
        let mut arena = FlitArena::default();
        let mut vc = Vc::new(&mut arena, 4);
        assert!(vc.is_free());
        vc.push(&mut arena, flit(1, FlitKind::Head));
        assert!(!vc.is_free());
        assert!(vc.accepts_continuation(PacketId(1)));
        assert!(!vc.accepts_continuation(PacketId(2)));
        vc.push(&mut arena, flit(1, FlitKind::Body));
        vc.push(&mut arena, flit(1, FlitKind::Body));
        vc.push(&mut arena, flit(1, FlitKind::Tail));
        assert!(!vc.accepts_continuation(PacketId(1)), "full");
        assert_eq!(vc.pop(&arena).unwrap().kind, FlitKind::Head);
        assert_eq!(vc.pop(&arena).unwrap().kind, FlitKind::Body);
        assert!(!vc.is_free(), "owner retained until tail pops");
        vc.pop(&arena);
        vc.pop(&arena);
        assert!(vc.is_free(), "tail pop releases ownership");
    }

    #[test]
    fn single_flit_packet_frees_immediately() {
        let mut arena = FlitArena::default();
        let mut vc = Vc::new(&mut arena, 4);
        vc.push(&mut arena, flit(9, FlitKind::HeadTail));
        assert!(!vc.is_free());
        vc.pop(&arena);
        assert!(vc.is_free());
    }

    /// A router with local, east and down ports of `vcs` VCs each, plus
    /// the VC store for its slots.
    fn local_port(arena: &mut FlitArena, vcs: usize) -> (Router, Vec<Vc>) {
        let r = Router::new(Coord::new(0, 0, 1), &[Dir::Local, Dir::East, Dir::Down]);
        let slots = (0..Dir::COUNT * vcs).map(|_| Vc::new(arena, 4)).collect();
        (r, slots)
    }

    /// Pushes a head flit into local VC `v`, keeping the masks in step.
    fn push_head(arena: &mut FlitArena, r: &mut Router, slots: &mut [Vc], v: usize, pkt: u64) {
        let slot = Dir::Local.index() * slots.len() / Dir::COUNT + v;
        slots[slot].push(arena, flit(pkt, FlitKind::Head));
        r.live |= 1 << slot;
        r.owned |= 1 << slot;
    }

    #[test]
    fn input_port_vc_selection() {
        let mut arena = FlitArena::default();
        let (mut r, mut slots) = local_port(&mut arena, 3);
        let li = Dir::Local.index();
        assert_eq!(r.free_vc(li, 3), Some(0));
        push_head(&mut arena, &mut r, &mut slots, 0, 1);
        assert_eq!(r.free_vc(li, 3), Some(1), "skips the owned VC");
        assert_eq!(r.continuation_vc(li, 3, &slots, PacketId(1)), Some(0));
        assert_eq!(r.continuation_vc(li, 3, &slots, PacketId(2)), None);
        assert_eq!(
            r.free_vc(Dir::East.index(), 3),
            Some(0),
            "ports are independent"
        );
    }

    #[test]
    fn all_vcs_busy_blocks_new_heads() {
        let mut arena = FlitArena::default();
        let (mut r, mut slots) = local_port(&mut arena, 2);
        push_head(&mut arena, &mut r, &mut slots, 0, 1);
        push_head(&mut arena, &mut r, &mut slots, 1, 2);
        assert_eq!(r.free_vc(Dir::Local.index(), 2), None);
    }

    #[test]
    fn eight_vcs_fill_the_last_port_of_the_mask() {
        let mut arena = FlitArena::default();
        let (mut r, mut slots) = local_port(&mut arena, 8);
        for v in 0..8 {
            assert_eq!(r.free_vc(Dir::Local.index(), 8), Some(v));
            push_head(&mut arena, &mut r, &mut slots, v, v as u64);
        }
        assert_eq!(r.free_vc(Dir::Local.index(), 8), None);
        assert_eq!(r.free_vc(Dir::Down.index(), 8), Some(0), "bits 56..64");
    }
}

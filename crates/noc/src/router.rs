//! Single-stage wormhole router state.
//!
//! The paper adopts speculative allocation and look-ahead routing to get a
//! single-cycle router (§3.2, citing Peh & Dally and Mullins et al.). We
//! model the *resulting timing*: a flit that wins switch allocation
//! traverses to the next router's input buffer in one cycle; a flit that
//! loses retries the next cycle. Routing runs once per hop, when a head
//! flit enters an input VC: the output port it will request is stored
//! with the VC (look-ahead routing), so a blocked head is never routed
//! again while it waits.
//!
//! Pillar routers carry one extra physical channel — the `Vertical` port —
//! interfacing the dTDMA bus (Figure 7); the router sees it as just
//! another port. The 7-port 3D-mesh ablation router instead carries `Up`
//! and `Down` ports.
//!
//! The router's VCs live in the network-wide VC vector; the router keeps
//! bitmasks over them, bit `in_dir * vcs + vc` (the round-robin slot), so
//! switch allocation walks only the VCs and outputs that hold work.

use nim_types::{Coord, Dir, PacketId};

use crate::bitset::Bits;
use crate::vc::Vc;

/// The slots of input port `dir`, as a mask over a router's VC masks.
#[inline]
pub(crate) fn port_slots(dir: usize, vcs: usize) -> u64 {
    (u64::MAX >> (64 - vcs)) << (dir * vcs)
}

/// An output port held by an in-flight packet (wormhole: once a head flit
/// claims an output, body flits follow contiguously until the tail).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Hold {
    pub pkt: PacketId,
    /// Input direction the packet is streaming from.
    pub in_dir: usize,
    /// VC index within that input port.
    pub vc: usize,
}

/// One router: port and VC bitmasks plus switch-allocation state.
#[derive(Clone, Debug)]
pub(crate) struct Router {
    pub coord: Coord,
    /// Ports that exist (each is both an input and an output), as a
    /// bitmask over [`Dir::index`].
    pub ports: u8,
    /// Outputs with a wormhole hold, as a bitmask over [`Dir::index`].
    pub held_mask: u8,
    /// Per-output wormhole hold.
    pub held: [Option<Hold>; Dir::COUNT],
    /// Per-output round-robin arbitration pointer (over `in_dir * V + vc`).
    pub rr: [u16; Dir::COUNT],
    /// VCs holding at least one flit, by slot `in_dir * V + vc`.
    pub live: u64,
    /// VCs owned by a packet, by slot.
    pub owned: u64,
    /// Total flits buffered in this router.
    pub occupancy: u32,
}

impl Router {
    /// Creates a router with ports in the given directions.
    pub(crate) fn new(coord: Coord, dirs: &[Dir]) -> Self {
        Self {
            coord,
            ports: dirs.iter().fold(0, |m, d| m | 1 << d.index()),
            held_mask: 0,
            held: Default::default(),
            rr: [0; Dir::COUNT],
            live: 0,
            owned: 0,
            occupancy: 0,
        }
    }

    /// Whether the router has a port in direction `d`.
    #[inline]
    pub(crate) fn has_port(&self, d: usize) -> bool {
        self.ports & (1 << d) != 0
    }

    /// Index of a VC of input `dir` that a new packet's head flit may
    /// allocate: the first one neither owned nor holding flits.
    #[inline]
    pub(crate) fn free_vc(&self, dir: usize, vcs: usize) -> Option<usize> {
        let free = !(self.live | self.owned) & port_slots(dir, vcs);
        (free != 0).then(|| free.trailing_zeros() as usize - dir * vcs)
    }

    /// Index of the VC of input `dir` owned by `pkt` with space for
    /// another flit; `slots` is this router's VCs, indexed by slot.
    #[inline]
    pub(crate) fn continuation_vc(
        &self,
        dir: usize,
        vcs: usize,
        slots: &[Vc],
        pkt: PacketId,
    ) -> Option<usize> {
        Bits(self.owned & port_slots(dir, vcs))
            .find(|&slot| slots[slot].accepts_continuation(pkt))
            .map(|slot| slot - dir * vcs)
    }

    /// Sets or clears the hold on output `o`.
    #[inline]
    pub(crate) fn set_hold(&mut self, o: usize, hold: Option<Hold>) {
        self.held[o] = hold;
        if hold.is_some() {
            self.held_mask |= 1 << o;
        } else {
            self.held_mask &= !(1 << o);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ports_are_created_where_requested() {
        let r = Router::new(Coord::new(0, 0, 0), &[Dir::East, Dir::North, Dir::Local]);
        assert!(r.has_port(Dir::East.index()));
        assert!(!r.has_port(Dir::West.index()));
        assert_eq!(r.ports.count_ones(), 3);
        assert_eq!((r.live, r.owned, r.occupancy), (0, 0, 0));
    }

    #[test]
    fn pillar_router_has_six_ports() {
        let dirs = [
            Dir::North,
            Dir::South,
            Dir::East,
            Dir::West,
            Dir::Local,
            Dir::Vertical,
        ];
        let r = Router::new(Coord::new(2, 2, 0), &dirs);
        assert_eq!(
            r.ports.count_ones(),
            6,
            "5-port mesh router + 1 vertical (paper §3.1)"
        );
    }

    #[test]
    fn holds_track_their_mask() {
        let mut r = Router::new(Coord::new(0, 0, 0), &[Dir::East, Dir::Local]);
        let hold = Hold {
            pkt: PacketId(5),
            in_dir: Dir::Local.index(),
            vc: 1,
        };
        r.set_hold(Dir::East.index(), Some(hold));
        assert_eq!(r.held_mask, 1 << Dir::East.index());
        r.set_hold(Dir::East.index(), None);
        assert_eq!(r.held_mask, 0);
        assert!(r.held.iter().all(Option::is_none));
    }
}

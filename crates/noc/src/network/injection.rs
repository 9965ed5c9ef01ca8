//! The injection phase: each node's network interface streams at most
//! one flit of its oldest pending packet into a local-input VC.

use nim_types::{Cycle, Dir};

use crate::bitset::Bits;
use crate::packet::{Flit, FlitKind};

use super::Network;

impl Network {
    pub(super) fn injection_phase(&mut self, now: Cycle) {
        if self.inj_active.is_empty() {
            return;
        }
        let li = Dir::Local.index();
        for w in 0..self.inj_active.num_words() {
            for b in Bits(self.inj_active.word(w)) {
                let n = w * 64 + b;
                let p = *self.injectors[n]
                    .queue
                    .front()
                    .expect("active injector holds a packet");
                let kind = FlitKind::for_position(p.seq, p.req.flits);
                let vc_sel = if kind.is_head() {
                    self.routers[n].free_vc(li, self.vcs)
                } else {
                    self.injectors[n]
                        .vc
                        .filter(|&v| self.vc(n, li * self.vcs + v).accepts_continuation(p.id))
                };
                let Some(v) = vc_sel else {
                    continue;
                };
                let flit = Flit {
                    pkt: p.id,
                    kind,
                    src: p.req.src,
                    dst: p.req.dst,
                    via: p.req.via,
                    class: p.req.class,
                    token: p.req.token,
                    injected: p.injected,
                    arrived: now,
                    hops: 0,
                    bus_wait: 0,
                };
                self.vc_push(n, li * self.vcs + v, flit);
                let inj = &mut self.injectors[n];
                let front = inj.queue.front_mut().expect("checked above");
                front.seq += 1;
                if front.seq == front.req.flits {
                    inj.queue.pop_front();
                    inj.vc = None;
                    if inj.queue.is_empty() {
                        self.inj_active.remove(n);
                    }
                } else {
                    inj.vc = Some(v);
                }
            }
        }
    }
}

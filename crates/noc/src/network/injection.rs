//! The injection phase: each node's network interface streams at most
//! one flit of its oldest pending packet into a local-input VC.

use nim_types::{Cycle, Dir};

use crate::packet::{Flit, FlitKind};

use super::Network;

impl Network {
    pub(super) fn injection_phase(&mut self, now: Cycle) {
        if self.inj_active.is_empty() {
            return;
        }
        let mut active =
            std::mem::replace(&mut self.inj_active, std::mem::take(&mut self.inj_scratch));
        active.sort_unstable();
        for &n in &active {
            self.in_inj[n as usize] = false;
        }
        for &n in &active {
            let n = n as usize;
            let li = Dir::Local.index();
            if let Some(p) = self.injectors[n].queue.front().copied() {
                let kind = FlitKind::for_position(p.seq, p.req.flits);
                let port = self.routers[n].inputs[li].as_mut().expect("local port");
                let vc_sel = if kind.is_head() {
                    port.free_vc()
                } else {
                    self.injectors[n]
                        .vc
                        .filter(|&v| port.vc(v).accepts_continuation(p.id))
                };
                if let Some(v) = vc_sel {
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
                    self.routers[n].inputs[li]
                        .as_mut()
                        .expect("local port")
                        .vc_mut(v)
                        .push(&mut self.arena, flit);
                    self.routers[n].occupancy += 1;
                    self.mark_dirty(n);
                    let inj = &mut self.injectors[n];
                    let front = inj.queue.front_mut().expect("checked above");
                    front.seq += 1;
                    if front.seq == front.req.flits {
                        inj.queue.pop_front();
                        inj.vc = None;
                    } else {
                        inj.vc = Some(v);
                    }
                }
            }
            if !self.injectors[n].queue.is_empty() {
                self.mark_inj(n);
            }
        }
        active.clear();
        self.inj_scratch = active;
    }
}

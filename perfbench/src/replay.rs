//! NoC host time, measured outside the full system: the traced run's
//! packet injections are replayed into a standalone [`Network`].
//!
//! The trace's inject events carry cycle, source, destination, class and
//! flit count but not the pillar the sender chose, so the replay routes
//! inter-layer packets via the source's nearest pillar. The real `via`
//! is the CPU's own pillar; `replay_fidelity` (replayed ÷ traced flit
//! hops) shows how far that moves the replayed work.

use std::io::{self, Write};
use std::time::Instant;

use nim_noc::{Network, SendRequest, TrafficClass, VerticalMode};
use nim_topology::ChipLayout;
use nim_types::{Coord, NetworkConfig};

/// One traced packet injection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Inject {
    /// Cycle the packet was handed to the network.
    pub cycle: u64,
    /// Injecting node.
    pub src: Coord,
    /// Destination node.
    pub dst: Coord,
    /// Message class.
    pub class: TrafficClass,
    /// Packet length.
    pub flits: u32,
}

/// A `Write` sink for `Obs::export_trace` that keeps only the inject
/// events, parsed line by line, so the exported JSON never sits in
/// memory whole.
#[derive(Debug, Default)]
pub struct InjectSink {
    line: Vec<u8>,
    /// Injections in trace (cycle) order.
    pub injects: Vec<Inject>,
    /// Inject lines that did not parse.
    pub malformed: u64,
}

impl Write for InjectSink {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        for &b in data {
            if b == b'\n' {
                self.take_line();
            } else {
                self.line.push(b);
            }
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.take_line();
        Ok(())
    }
}

impl InjectSink {
    fn take_line(&mut self) {
        let line = String::from_utf8_lossy(&self.line);
        if line.contains("\"name\":\"inject\"") {
            match parse_inject(&line) {
                Some(i) => self.injects.push(i),
                None => self.malformed += 1,
            }
        }
        self.line.clear();
    }
}

/// The text after `"key":` up to the next `,` or `}`, quotes stripped.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    if let Some(quoted) = rest.strip_prefix('"') {
        quoted.split('"').next()
    } else {
        rest.split([',', '}']).next()
    }
}

fn coord(s: &str) -> Option<Coord> {
    let mut it = s.split(',').map(|v| v.parse::<u8>().ok());
    let c = Coord {
        x: it.next()??,
        y: it.next()??,
        layer: it.next()??,
    };
    Some(c)
}

fn parse_inject(line: &str) -> Option<Inject> {
    let class = field(line, "class")?;
    Some(Inject {
        cycle: field(line, "ts")?.parse().ok()?,
        src: coord(field(line, "src")?)?,
        dst: coord(field(line, "dst")?)?,
        class: TrafficClass::ALL.into_iter().find(|c| c.name() == class)?,
        flits: field(line, "flits")?.parse().ok()?,
    })
}

/// What a replay did and cost.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Replay {
    /// Host seconds of the send/tick loop.
    pub secs: f64,
    /// Flit hops the standalone network made.
    pub flit_hops: u64,
    /// Packets delivered.
    pub delivered: u64,
}

/// Replays `injects` into a fresh network of `layout`, sending each at
/// its traced cycle and ticking until every packet is delivered.
pub fn replay(layout: &ChipLayout, cfg: &NetworkConfig, injects: &[Inject]) -> Replay {
    let mut net = Network::new(layout, cfg, VerticalMode::Pillars);
    let mut out = Vec::new();
    let mut delivered = 0u64;
    let mut drain = |net: &mut Network, delivered: &mut u64| {
        if net.has_deliveries() {
            net.drain_delivered_into(&mut out);
            *delivered += out.len() as u64;
            out.clear();
        }
    };
    let start = Instant::now();
    for inj in injects {
        while net.now().0 < inj.cycle {
            net.tick();
            drain(&mut net, &mut delivered);
        }
        net.send(SendRequest {
            src: inj.src,
            dst: inj.dst,
            via: layout.nearest_pillar(inj.src),
            class: inj.class,
            flits: inj.flits,
            token: 0,
        });
    }
    // A bound far beyond any drain time keeps a wedged replay finite.
    let limit = net.now().0 + 10_000_000;
    while !net.is_idle() && net.now().0 < limit {
        net.tick();
        drain(&mut net, &mut delivered);
    }
    Replay {
        secs: start.elapsed().as_secs_f64(),
        flit_hops: net.stats().flit_hops,
        delivered,
    }
}

/// Host ns of one `Network::tick` on an empty network of `layout`:
/// the per-cycle floor every workload pays.
pub fn idle_tick_ns(layout: &ChipLayout, cfg: &NetworkConfig, ticks: u64) -> f64 {
    let mut net = Network::new(layout, cfg, VerticalMode::Pillars);
    let start = Instant::now();
    for _ in 0..ticks {
        net.tick();
    }
    std::hint::black_box(net.now());
    start.elapsed().as_nanos() as f64 / ticks.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_inject_lines_only() {
        let mut sink = InjectSink::default();
        sink.write_all(
            b"[\n{\"name\":\"inject\",\"cat\":\"packet\",\"ph\":\"i\",\"ts\":17,\"pid\":0,\"tid\":0,\"s\":\"t\",\
              \"args\":{\"packet\":3,\"src\":\"1,2,0\",\"dst\":\"4,5,1\",\"class\":\"data\",\"flits\":5}},\n\
              {\"name\":\"deliver\",\"ts\":20}\n]\n",
        )
        .unwrap();
        sink.flush().unwrap();
        assert_eq!(sink.malformed, 0);
        assert_eq!(
            sink.injects,
            vec![Inject {
                cycle: 17,
                src: Coord {
                    x: 1,
                    y: 2,
                    layer: 0
                },
                dst: Coord {
                    x: 4,
                    y: 5,
                    layer: 1
                },
                class: TrafficClass::Data,
                flits: 5,
            }]
        );
    }
}

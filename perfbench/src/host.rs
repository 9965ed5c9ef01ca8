//! The host-speed probe: a fixed piece of work in the benchmark's own
//! code, timed right before each piece of timed work, that puts the host
//! times of every run on a common scale.
//!
//! On a shared host other guests slow this one down by 10–30% for
//! stretches of seconds to minutes, and they slow the simulator's branchy,
//! pointer-heavy work far more than a plain arithmetic or memory-latency
//! loop. The probe therefore does the same kind of work: hash-map
//! updates and lookups, a binary heap and an unstable sort over a working
//! set of a few MiB. It calls no simulator code, so a change to the
//! simulator cannot move it.
//!
//! A host time `t` measured beside a probe that took `p` seconds is
//! reported as `t × NOMINAL_PROBE_S / p`: the time the same work would
//! take on the reference host, where the probe takes [`NOMINAL_PROBE_S`].

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// Host seconds of one probe on the reference host: about the probe's
/// median on a 2-vCPU KVM guest (Intel Xeon, CPU model 143). It only sets
/// the scale of the reported times; two commits compared with the same
/// benchmark share it.
pub const NOMINAL_PROBE_S: f64 = 0.013;

/// Operations of the map and heap part of one probe.
const OPS: u64 = 60_000;
/// Keys of the map part (a power of two).
const KEYS: u64 = 1 << 16;
/// Elements sorted by one probe.
const SORTED: usize = 200_000;

/// Runs the probe once and returns its host seconds. Every call does
/// the same work. Its buffers are allocated afresh on every call, so
/// that, like the simulator's systems, they land on different memory
/// from call to call: buffers kept for a whole process make every probe
/// of that process pay for one placement in the caches.
pub fn probe_s() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> =
        HashMap::with_capacity_and_hasher(KEYS as usize / 2, BuildHasherDefault::default());
    let mut heap = BinaryHeap::with_capacity(KEYS as usize / 2);
    let mut acc = 0u64;
    for i in 0..OPS {
        *map.entry(next() & (KEYS - 1)).or_insert(0) += i;
        heap.push(Reverse(next() >> 40));
        if i % 3 == 0 {
            if let Some(Reverse(v)) = heap.pop() {
                acc = acc.wrapping_add(v);
            }
        }
        if let Some(v) = map.get(&(next() & (KEYS - 1))) {
            if v & 1 == 1 {
                acc ^= v;
            }
        }
    }
    let mut sorted: Vec<u32> = (0..SORTED).map(|_| next() as u32).collect();
    sorted.sort_unstable();
    std::hint::black_box((acc, map.len(), heap.len(), sorted[SORTED / 2]));
    start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_takes_time() {
        assert!(probe_s() > 0.0);
    }
}

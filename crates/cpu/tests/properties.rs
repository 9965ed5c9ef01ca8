//! Property-based tests for the in-order core and its L1 caches.

use nim_cpu::{CoreAction, InOrderCore, L1Cache};
use nim_types::{AccessKind, Address, CpuId, L1Config, TraceOp};
use proptest::prelude::*;

fn arb_op() -> impl Strategy<Value = TraceOp> {
    (0u32..20, 0usize..3, 0u64..64).prop_map(|(gap, kind, line)| TraceOp {
        gap,
        kind: [AccessKind::Read, AccessKind::Write, AccessKind::IFetch][kind],
        addr: Address(line * 64),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Instruction accounting: the core retires exactly the instructions
    /// the trace describes (gap instructions plus one memory instruction
    /// per op), regardless of memory-system timing.
    #[test]
    fn no_instruction_is_lost_or_invented(
        ops in proptest::collection::vec(arb_op(), 1..100),
        mem_latency in 1u64..100,
    ) {
        let expected: u64 = ops.iter().map(|o| u64::from(o.gap) + 1).sum();
        let mut core = InOrderCore::new(CpuId(0), &L1Config::default());
        let mut it = ops.into_iter();
        let mut pending: Option<(u64, Address)> = None;
        let mut now = 0u64;
        while !core.is_halted() {
            now += 1;
            prop_assert!(now < 1_000_000, "core livelocked");
            if let Some((due, addr)) = pending {
                if due <= now {
                    core.data_returned(addr);
                    pending = None;
                }
            }
            match core.tick(&mut || it.next()) {
                CoreAction::Request(r) if r.kind == AccessKind::Write => {
                    core.store_completed();
                }
                CoreAction::Request(r) => {
                    pending = Some((now + mem_latency, r.addr));
                }
                _ => {}
            }
        }
        prop_assert_eq!(core.stats().instructions, expected);
        // A single-issue core can never exceed IPC 1.
        prop_assert!(core.stats().instructions <= core.stats().cycles + 1);
    }

    /// The L1 never holds more lines than its capacity, and lookups agree
    /// with a model set.
    #[test]
    fn l1_matches_a_reference_model(
        addrs in proptest::collection::vec(0u64..2048, 1..300),
    ) {
        let cfg = L1Config::default();
        let mut l1 = L1Cache::new(&cfg);
        let mut resident = std::collections::HashSet::new();
        for a in addrs {
            let addr = Address(a * 64);
            let hit = l1.access(addr);
            prop_assert_eq!(hit, resident.contains(&addr.line(64)), "model mismatch");
            if !hit {
                if let Some(evicted) = l1.fill(addr) {
                    prop_assert!(resident.remove(&evicted), "evicted a ghost");
                }
                resident.insert(addr.line(64));
            }
            prop_assert!(l1.occupancy() <= cfg.lines() as usize);
            prop_assert_eq!(l1.occupancy(), resident.len());
        }
    }
}

//! `MetricsRegistry::merge` + `Report::absorb` under concurrent
//! per-worker registries at non-u64 lane widths.
//!
//! The parallel sweep executor fans one registry out per worker and
//! folds them back with `merge` (counters) and `absorb` (reports). Its
//! determinism contract — byte-identical output for every worker count
//! — rests on two properties exercised here at multi-word widths
//! (128/256/1024 lanes):
//!
//! * **associativity**: merging `(a ∪ b) ∪ c` equals `a ∪ (b ∪ c)`;
//! * **worker-count independence**: any partition of the same event
//!   stream over 1, 2 or 4 concurrently-filled registries merges (in
//!   input order) to the same document a single observer produces.

use lip_obs::{MetricsRegistry, Probe, Report, Topology};

fn topo() -> Topology {
    Topology {
        channels: 3,
        shells: 2,
        relay_capacities: vec![2, 4],
    }
}

/// Build a multi-word mask with exactly the given lanes set.
fn mask_of(words: usize, lanes: &[u16]) -> Vec<u64> {
    let mut m = vec![0u64; words];
    for &l in lanes {
        m[usize::from(l) / 64] |= 1u64 << (usize::from(l) % 64);
    }
    m
}

/// Deterministic lane set derived from `(seed, tag)`.
fn lanes_for(lanes: u32, seed: u64, tag: u64) -> Vec<u16> {
    let mut x = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut lane_list = Vec::new();
    for _ in 0..8 {
        // xorshift64* — cheap, deterministic, well-mixed.
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        let l = (x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) % u64::from(lanes);
        lane_list.push(l as u16);
    }
    lane_list.sort_unstable();
    lane_list.dedup();
    lane_list
}

/// Deterministic pseudo-stream: feed `cycles` cycles of mask-hook
/// traffic derived from `seed` into `reg`. Every worker processing the
/// same `(seed, cycle)` slice produces the same observations.
///
/// Relay traffic is fill-on-even / drain-the-same-mask-on-odd, so
/// occupancy returns to zero at every even cycle: chunk boundaries on
/// even cycles hand a worker the same empty-relay state a fresh run
/// starts from. (That mirrors the real executor, where each worker's
/// registry observes complete runs — the transient `cur_occ` is
/// per-run state and is deliberately not merged.)
fn feed(reg: &mut MetricsRegistry, lanes: u32, seed: u64, cycles: std::ops::Range<u64>) {
    assert!(
        cycles.start.is_multiple_of(2),
        "chunks must start occupancy-neutral"
    );
    let words = (lanes as usize).div_ceil(64);
    for cycle in cycles {
        let mask = mask_of(words, &lanes_for(lanes, seed, cycle));
        reg.fire_mask(cycle, (cycle % 2) as u32, &mask);
        reg.stall_mask(cycle, (cycle % 3) as u32, &mask);
        reg.consume_mask(cycle, 0, &mask);
        reg.void_in_mask(cycle, 2, &mask);
        let pair = mask_of(words, &lanes_for(lanes, seed ^ 0xace1, cycle / 2));
        if cycle % 2 == 0 {
            reg.relay_fill_mask(cycle, (cycle % 2) as u32, &pair);
        } else {
            reg.relay_drain_mask(cycle, ((cycle + 1) % 2) as u32, &pair);
        }
        reg.end_cycle(cycle);
    }
}

#[test]
fn merge_is_associative_at_multiword_widths() {
    for lanes in [128u32, 256, 1024] {
        let mut parts = Vec::new();
        for w in 0..3u64 {
            let mut r = MetricsRegistry::with_lanes(topo(), lanes);
            feed(&mut r, lanes, 41 + w, (w * 50)..((w + 1) * 50));
            parts.push(r);
        }
        // (a ∪ b) ∪ c
        let mut left = parts[0].clone();
        left.merge(&parts[1]);
        left.merge(&parts[2]);
        // a ∪ (b ∪ c)
        let mut bc = parts[1].clone();
        bc.merge(&parts[2]);
        let mut right = parts[0].clone();
        right.merge(&bc);
        assert_eq!(left.to_json(), right.to_json(), "width {lanes}");
        assert_eq!(left.cycles(), 150);
    }
}

#[test]
fn concurrent_worker_registries_merge_independent_of_worker_count() {
    for lanes in [128u32, 256] {
        const CYCLES: u64 = 120;
        let seed = 7u64;
        // Ground truth: one registry observes the whole stream.
        let mut solo = MetricsRegistry::with_lanes(topo(), lanes);
        feed(&mut solo, lanes, seed, 0..CYCLES);
        let expected = solo.to_json();

        for workers in [1u64, 2, 3, 4] {
            // Fill one registry per worker on real threads (the
            // executor's fan-out shape), then fold in input order.
            // `std::thread::scope` is used directly: lip-par depends on
            // this crate, so the pool itself cannot appear in its tests.
            let chunk = CYCLES.div_ceil(workers);
            let mut regs: Vec<MetricsRegistry> = (0..workers)
                .map(|_| MetricsRegistry::with_lanes(topo(), lanes))
                .collect();
            std::thread::scope(|scope| {
                for (w, reg) in regs.iter_mut().enumerate() {
                    let w = w as u64;
                    scope.spawn(move || {
                        let lo = w * chunk;
                        let hi = CYCLES.min(lo + chunk);
                        feed(reg, lanes, seed, lo..hi);
                    });
                }
            });
            let mut merged = regs.remove(0);
            for r in &regs {
                merged.merge(r);
            }
            assert_eq!(
                merged.to_json(),
                expected,
                "width {lanes}, {workers} workers"
            );
            assert_eq!(merged.cycles(), CYCLES);
        }
    }
}

/// Per-worker report as the sweep executor writes it.
fn worker_report(w: usize, reg: &MetricsRegistry) -> Report {
    let mut r = Report::new(format!("worker{w}"));
    r.push("cycles", reg.cycles())
        .push("fires", reg.total_fires())
        .push("metrics", reg.to_json());
    r
}

#[test]
fn report_absorb_is_worker_count_independent_over_concurrent_workers() {
    const CYCLES: u64 = 96;
    let lanes = 256u32;
    let seed = 13u64;

    // The absorbed document must depend only on the partition *points*,
    // not on how many OS threads filled the partitions: reports are
    // per-chunk, so fix 4 chunks and vary the thread count used to
    // fill them.
    let chunks = 4u64;
    let chunk = CYCLES / chunks;
    let mut documents = Vec::new();
    for threads in [1usize, 2, 4] {
        let mut regs: Vec<MetricsRegistry> = (0..chunks)
            .map(|_| MetricsRegistry::with_lanes(topo(), lanes))
            .collect();
        std::thread::scope(|scope| {
            let mut slots: Vec<&mut MetricsRegistry> = regs.iter_mut().collect();
            // Distribute chunks round-robin over `threads` threads.
            let mut per_thread: Vec<Vec<(u64, &mut MetricsRegistry)>> =
                (0..threads).map(|_| Vec::new()).collect();
            let mut i = 0u64;
            while let Some(reg) = slots.pop() {
                let c = chunks - 1 - i; // pop returns the last chunk
                per_thread[(i as usize) % threads].push((c, reg));
                i += 1;
            }
            for batch in per_thread {
                scope.spawn(move || {
                    for (c, reg) in batch {
                        feed(reg, lanes, seed, (c * chunk)..((c + 1) * chunk));
                    }
                });
            }
        });
        let mut main = Report::new("sweep");
        main.push("lanes", u64::from(lanes));
        for (w, reg) in regs.iter().enumerate() {
            main.absorb(&worker_report(w, reg));
        }
        documents.push(main.to_json());
    }
    assert_eq!(documents[0], documents[1]);
    assert_eq!(documents[1], documents[2]);
    assert!(documents[0].contains("\"worker0.cycles\""));
    assert!(documents[0].contains("\"worker3.metrics\""));
}

//! EXP-A3 — queue sizing (the paper's reference \[5\], Carloni &
//! Sangiovanni-Vincentelli DAC'00): instead of adding *stations* to the
//! short branch, deepen the one station already there.
//!
//! A capacity-`k` FIFO on the Fig. 1 short branch contributes `k` spaces
//! to the implicit loop at one cycle of backward latency, so
//! `T = min(1, (k + 2)/5)` — capacity 3 fully equalizes Fig. 1 with a
//! single station, where EXP-A1 needed an extra full station. Loops, by
//! contrast, are latency-bound: deepening their queues buys nothing,
//! exactly as `S/(S+R)` predicts.

use lip_analysis::{minimal_equalizing_capacity, predict_throughput};
use lip_bench::{banner, emit_report, mark, table, Report};
use lip_core::RelayKind;
use lip_graph::generate;
use lip_sim::{Ratio, ThroughputCache};

fn main() {
    banner(
        "EXP-A3",
        "queue sizing vs station insertion (Carloni DAC'00 baseline)",
        "reconvergence slack scales with queue capacity; loop throughput does not",
    );

    // All candidate configurations are measured through one memo table:
    // the capacity search below re-proposes structures this sweep
    // already simulated, and the cache turns those into lookups.
    let mut cache = ThroughputCache::new();

    // 1. Fig. 1 with the short-branch station resized.
    let mut rows = Vec::new();
    let mut fifo_mismatches = 0u64;
    for k in 2u8..=6 {
        let mut f = generate::fig1();
        f.netlist
            .set_relay_kind(f.short_relays[0], RelayKind::Fifo(k));
        f.netlist.validate().expect("legal");
        let predicted = predict_throughput(&f.netlist).expect("periodic");
        let measured = cache
            .measure(&f.netlist)
            .expect("measures")
            .system_throughput()
            .expect("one sink");
        let formula = Ratio::new(u64::from(k + 2).min(5), 5);
        fifo_mismatches += u64::from(measured != predicted || measured != formula);
        rows.push(vec![
            k.to_string(),
            k.to_string(),
            formula.to_string(),
            predicted.to_string(),
            measured.to_string(),
            mark(measured == predicted && measured == formula).into(),
        ]);
    }
    println!(
        "{}",
        table(
            &[
                "short-branch capacity",
                "registers",
                "(k+2)/5 cap 1",
                "model",
                "measured",
                "check"
            ],
            &rows
        )
    );
    println!("capacity 3 on the existing station equalizes Fig. 1 (T = 1/1) with one");
    println!("register fewer than inserting a second full station\n");

    // 2. Loops are latency-bound: queue depth is irrelevant.
    let fifo_rows = rows.len() as u64;
    let mut rows = Vec::new();
    let mut loop_mismatches = 0u64;
    for (s, r) in [(2usize, 1usize), (2, 2), (3, 2)] {
        for k in 2u8..=5 {
            let mut ring = generate::ring(s, r, RelayKind::Full);
            for relay in &ring.relays {
                ring.netlist.set_relay_kind(*relay, RelayKind::Fifo(k));
            }
            ring.netlist.validate().expect("legal");
            let measured = cache
                .measure(&ring.netlist)
                .expect("measures")
                .system_throughput()
                .expect("one sink");
            let formula = Ratio::new(s as u64, (s + r) as u64);
            loop_mismatches += u64::from(measured != formula);
            rows.push(vec![
                format!("ring({s},{r})"),
                k.to_string(),
                formula.to_string(),
                measured.to_string(),
                mark(measured == formula).into(),
            ]);
        }
    }
    println!(
        "{}",
        table(
            &["loop", "queue capacity", "S/(S+R)", "measured", "check"],
            &rows
        )
    );
    println!("loop throughput is set by tokens/latency, not by capacity — deepening");
    println!("queues cannot beat S/(S+R); only removing latency (or adding tokens)");
    println!("can, which is the content of the paper's feedback formula\n");

    // 3. The memoized bisection search lands on the same knee the sweep
    // shows — and every configuration it proposes is already cached, so
    // the search itself costs zero extra simulation.
    let misses_before_search = cache.misses();
    let f = generate::fig1();
    let choice = minimal_equalizing_capacity(&f.netlist, f.short_relays[0], 6, &mut cache)
        .expect("fig1 measures");
    let search_ok = choice.capacity == 3 && choice.throughput == Ratio::new(1, 1);
    let search_simulations = cache.misses() - misses_before_search;
    println!(
        "memoized bisection: minimal equalizing capacity {} at T = {} ({} new\n\
         simulations; {} cache hits over {} configurations)",
        choice.capacity,
        choice.throughput,
        search_simulations,
        cache.hits(),
        cache.len(),
    );

    let mut report = Report::new("exp_queue_sizing");
    report
        .push("fifo_configurations", fifo_rows)
        .push("loop_configurations", rows.len() as u64)
        .push("fifo_mismatches", fifo_mismatches)
        .push("loop_mismatches", loop_mismatches)
        .push("search_capacity", u64::from(choice.capacity))
        .push("search_simulations", search_simulations)
        .push("cache_hits", cache.hits())
        .push("cache_misses", cache.misses())
        .push(
            "ok",
            fifo_mismatches == 0 && loop_mismatches == 0 && search_ok,
        );
    emit_report(&report);
}

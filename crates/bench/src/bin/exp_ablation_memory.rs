//! EXP-A2 — the minimum-memory trade-off, made executable.
//!
//! The paper simplifies the shell ("it does not save the incoming stop
//! signals") and compensates with a half or full relay station between
//! shells. The alternative — the earlier buffered shell that registers
//! its inputs — spends exactly the same storage. This ablation builds
//! the same designs both ways and shows: identical behaviour, identical
//! register budget, and one structural freedom the simplified shell
//! lacks (relay-free loops).

use lip_bench::{banner, emit_report, mark, table, Report};
use lip_graph::generate;
use lip_sim::{measure, Ratio, System};

fn main() {
    banner(
        "EXP-A2",
        "simplified shell + half station  vs  buffered shell",
        "same total memory, identical streams; buffered shells additionally allow relay-free loops",
    );

    // 1. Memory + behaviour equivalence on pipelines.
    let mut rows = Vec::new();
    let mut all_identical = true;
    for shells in [1usize, 2, 4, 8] {
        let (simple, buffered) = generate::memory_equivalent_chains(shells);
        let cs = simple.netlist.census();
        let cb = buffered.netlist.census();
        // Register budget: one output register per shell in both; one
        // half-station register per simplified stage vs one input buffer
        // per buffered stage.
        let regs_simple = cs.shells + cs.half_relays;
        let regs_buffered = cb.shells + cb.buffered_shells;

        let mut a = System::new(&simple.netlist).expect("elaborates");
        let mut b = System::new(&buffered.netlist).expect("elaborates");
        a.run(120);
        b.run(120);
        let sa = a.sink(simple.sink).expect("sink");
        let sb = b.sink(buffered.sink).expect("sink");
        let identical = sa.received() == sb.received() && sa.voids_seen() == sb.voids_seen();
        all_identical &= identical && regs_simple == regs_buffered;
        rows.push(vec![
            shells.to_string(),
            regs_simple.to_string(),
            regs_buffered.to_string(),
            format!("{}", sa.received().len()),
            format!("{}", sb.received().len()),
            mark(identical && regs_simple == regs_buffered).into(),
        ]);
    }
    println!(
        "{}",
        table(
            &[
                "stages",
                "regs (simple+half)",
                "regs (buffered)",
                "tokens A",
                "tokens B",
                "identical"
            ],
            &rows
        )
    );

    // 2. The structural freedom: loops with no relay stations at all.
    let mut rows = Vec::new();
    let mut loops_at_unit = 0u64;
    for s in 1..=5usize {
        let ring = generate::buffered_ring(s, 0);
        ring.netlist.validate().expect("buffered loops are legal");
        let t = measure(&ring.netlist)
            .expect("measures")
            .system_throughput()
            .expect("one sink");
        // Buffered shells fuse a half station per input: zero added
        // latency, so the relay-free loop runs at full rate.
        loops_at_unit += u64::from(t == Ratio::new(1, 1));
        rows.push(vec![
            s.to_string(),
            "0".into(),
            t.to_string(),
            mark(t == Ratio::new(1, 1)).into(),
        ]);
    }
    println!(
        "{}",
        table(
            &["buffered shells in loop", "relay stations", "T", "check"],
            &rows
        )
    );
    println!("a simplified-shell loop with zero relay stations is rejected by the");
    println!("validator (combinational stop loop) — the minimum-memory theorem; the");
    println!("buffered shell pays the same registers inside the shell instead");

    let mut report = Report::new("exp_ablation_memory");
    report
        .push("chains_identical", all_identical)
        .push("relay_free_loops_at_unit_throughput", loops_at_unit)
        .push("ok", all_identical && loops_at_unit == 5);
    emit_report(&report);
}

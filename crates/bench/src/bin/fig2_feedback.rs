//! EXP-F2 — Fig. 2: feedback topology evolution.
//!
//! Paper: "A maximum of S valid data can be present at a time, out of
//! S + R positions. This justifies the number S/(S+R) for the maximum
//! throughput."

use lip_bench::{banner, emit_report, mark, table, Report};
use lip_core::RelayKind;
use lip_graph::generate;
use lip_sim::{measure, Evolution, Ratio, System};

fn main() {
    banner(
        "EXP-F2",
        "Fig. 2 — feedback topology evolution",
        "at most S tokens over S+R loop places; T = S/(S+R)",
    );

    // The figure's instance: S = 2 shells (A, B), R = 1 relay station.
    let fig2 = generate::ring(2, 1, RelayKind::Full);
    println!("topology: {}\n", fig2.netlist);
    let nodes = [fig2.shells[0], fig2.shells[1], fig2.relays[0]];
    let ev = Evolution::record(&fig2.netlist, &nodes, 14).expect("fig2 elaborates");
    println!("{ev}");

    // Token-count invariant: never more than S informative tokens on
    // the loop.
    let mut sys = System::new(&fig2.netlist).expect("fig2 elaborates");
    let mut max_tokens = 0usize;
    for _ in 0..60 {
        sys.settle();
        let tokens: usize = fig2
            .shells
            .iter()
            .map(|s| usize::from(sys.shell(*s).expect("shell").outputs()[0].is_valid()))
            .chain(
                fig2.relays
                    .iter()
                    .map(|r| sys.relay(*r).expect("relay").occupancy()),
            )
            .sum();
        max_tokens = max_tokens.max(tokens);
        sys.step();
    }
    println!("max informative tokens observed on the loop: {max_tokens} (S = 2)\n");
    assert!(max_tokens <= 2);

    let mut rows = Vec::new();
    let mut mismatches = 0u64;
    for s in 1..=6usize {
        for r in 1..=6usize {
            let ring = generate::ring(s, r, RelayKind::Full);
            let measured = measure(&ring.netlist)
                .expect("ring measures")
                .system_throughput()
                .expect("one sink");
            let formula = Ratio::new(s as u64, (s + r) as u64);
            mismatches += u64::from(measured != formula);
            rows.push(vec![
                s.to_string(),
                r.to_string(),
                formula.to_string(),
                measured.to_string(),
                mark(measured == formula).into(),
            ]);
        }
    }
    println!(
        "{}",
        table(&["S", "R", "S/(S+R)", "measured", "check"], &rows)
    );

    let mut report = Report::new("fig2_feedback");
    report
        .push("max_loop_tokens", max_tokens as u64)
        .push("rings_checked", rows.len() as u64)
        .push("formula_mismatches", mismatches)
        .push("ok", max_tokens <= 2 && mismatches == 0);
    emit_report(&report);
}

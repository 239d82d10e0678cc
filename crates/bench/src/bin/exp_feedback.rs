//! EXP-T3 — the feedback-loop formula `T = S/(S+R)` over a parameter
//! sweep, for both relay-station kinds.
//!
//! Paper: "Graphs containing loops of shells and relay stations ... are
//! responsible for the worst throughput degradation. ... A maximum of S
//! valid data can be present at a time, out of S+R positions."

use lip_analysis::predict_throughput;
use lip_bench::{banner, emit_report, mark, table, Report};
use lip_core::RelayKind;
use lip_graph::generate;
use lip_sim::{measure, Ratio};

fn main() {
    banner(
        "EXP-T3",
        "feedback loops: T = S/(S+R)",
        "loop throughput S/(S+R) for full stations; half stations add capacity without latency (model-exact)",
    );

    let mut rows = Vec::new();
    let mut mismatches = 0u64;
    for s in 1..=8usize {
        for r in 0..=8usize {
            let ring = generate::ring(s, r, RelayKind::Full);
            if ring.netlist.validate().is_err() {
                continue; // r = 0 rings violate minimum memory
            }
            let formula = Ratio::new(s as u64, (s + r) as u64);
            let measured = measure(&ring.netlist)
                .expect("ring measures")
                .system_throughput()
                .expect("one sink");
            mismatches += u64::from(measured != formula);
            rows.push(vec![
                s.to_string(),
                r.to_string(),
                "full".into(),
                formula.to_string(),
                measured.to_string(),
                mark(measured == formula).into(),
            ]);
        }
    }
    // Half-station rings: latency-free stations leave T = 1 (predicted
    // exactly by the marked-graph model).
    for s in 1..=4usize {
        for r in 1..=4usize {
            let ring = generate::ring(s, r, RelayKind::Half);
            if ring.netlist.validate().is_err() {
                continue;
            }
            let predicted = predict_throughput(&ring.netlist).expect("periodic");
            let measured = measure(&ring.netlist)
                .expect("ring measures")
                .system_throughput()
                .expect("one sink");
            mismatches += u64::from(measured != predicted);
            rows.push(vec![
                s.to_string(),
                r.to_string(),
                "half".into(),
                predicted.to_string(),
                measured.to_string(),
                mark(measured == predicted).into(),
            ]);
        }
    }
    println!(
        "{}",
        table(&["S", "R", "kind", "predicted", "measured", "check"], &rows)
    );

    let mut report = Report::new("exp_feedback");
    report
        .push("rings_checked", rows.len() as u64)
        .push("mismatches", mismatches)
        .push("ok", mismatches == 0);
    emit_report(&report);
}

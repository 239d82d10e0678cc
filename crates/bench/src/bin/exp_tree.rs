//! EXP-T1 — tree topologies.
//!
//! Paper: "The simplest topology is a tree. The throughput of each node
//! ... is 1. However, each relay station must be initialized with non
//! valid outputs that must be eliminated flowing toward the primary
//! outputs. Thus the initial latency for each node before firing at full
//! speed can be as much as the longest path in the tree (transient
//! duration)."

use lip_bench::{banner, emit_report, mark, table, Report};
use lip_graph::{generate, topology};
use lip_sim::{measure, Ratio};

fn main() {
    banner(
        "EXP-T1",
        "tree topologies: throughput and transient",
        "T = 1; transient bounded by the longest relay path",
    );

    let mut rows = Vec::new();
    let mut ok_rows = 0u64;
    for depth in 1..=4usize {
        for fanout in 1..=3usize {
            for relays in 0..=3usize {
                if fanout.pow(depth as u32) > 16 {
                    continue;
                }
                let t = generate::tree(depth, fanout, relays);
                let longest = topology::longest_latency(&t.netlist).expect("tree is acyclic");
                let m = measure(&t.netlist).expect("tree measures");
                let throughput = m.system_throughput().expect("has sinks");
                let p = m.periodicity.expect("tree is periodic");
                ok_rows += u64::from(throughput == Ratio::new(1, 1) && p.transient <= longest + 1);
                rows.push(vec![
                    depth.to_string(),
                    fanout.to_string(),
                    relays.to_string(),
                    throughput.to_string(),
                    longest.to_string(),
                    p.transient.to_string(),
                    mark(throughput == Ratio::new(1, 1) && p.transient <= longest + 1).into(),
                ]);
            }
        }
    }
    println!(
        "{}",
        table(
            &[
                "depth",
                "fanout",
                "RS/edge",
                "T",
                "longest path",
                "transient",
                "check"
            ],
            &rows
        )
    );
    println!("every tree reaches T = 1 with transient <= longest path (+1 measurement grain)");

    let mut report = Report::new("exp_tree");
    report
        .push("trees_checked", rows.len() as u64)
        .push("trees_ok", ok_rows)
        .push("ok", ok_rows == rows.len() as u64);
    emit_report(&report);
}

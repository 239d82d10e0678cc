//! EXP-T2 — the reconvergent feed-forward formula `T = (m − i)/m`.
//!
//! Paper: "The number of invalid data is the difference of relay
//! stations i between the feedforward branches. ... The general formula
//! T = (m−i)/m, where m is the total number of relay stations in the
//! loop, plus the number of shells on the path with the highest number
//! of relay stations."
//!
//! The closed form is stated for full relay stations; segments realised
//! with half stations (rows with a `0` count) are predicted exactly by
//! the marked-graph model instead, which subsumes the formula.

use lip_analysis::predict_throughput;
use lip_bench::{banner, emit_report, mark, table, Report};
use lip_graph::generate;
use lip_sim::{measure, Ratio};

fn main() {
    banner(
        "EXP-T2",
        "reconvergent feed-forward: T = (m - i)/m",
        "per-period deficit equals the branch imbalance i; m counts loop relay stations plus the shells on the most-pipelined branch",
    );

    let mut rows = Vec::new();
    let mut mismatches = 0u64;
    for r1 in 0..=3usize {
        for r2 in 0..=3usize {
            for s in 0..=3usize {
                let f = generate::fork_join(r1, r2, s);
                let long = r1 + r2;
                let all_full = r1 > 0 && r2 > 0 && s > 0;
                let formula = if all_full {
                    let loop_relays = (long + s) as u64;
                    let (m, i) = if long >= s {
                        (loop_relays + 2, (long - s) as u64)
                    } else {
                        (loop_relays + 1, (s - long) as u64)
                    };
                    Some(if i == 0 {
                        Ratio::new(1, 1)
                    } else {
                        Ratio::new(m - i, m)
                    })
                } else {
                    None
                };
                let predicted = predict_throughput(&f.netlist).expect("periodic");
                let measured = measure(&f.netlist)
                    .expect("fork-join measures")
                    .system_throughput()
                    .expect("one sink");
                let ok = measured == predicted && formula.is_none_or(|f| f == measured);
                mismatches += u64::from(!ok);
                rows.push(vec![
                    format!("({r1},{r2},{s})"),
                    (long as i64 - s as i64).to_string(),
                    formula.map_or_else(|| "(half RS)".into(), |f| f.to_string()),
                    predicted.to_string(),
                    measured.to_string(),
                    mark(ok).into(),
                ]);
            }
        }
    }
    println!(
        "{}",
        table(
            &[
                "(r1,r2,s)",
                "imbalance",
                "(m-i)/m",
                "model",
                "measured",
                "check"
            ],
            &rows
        )
    );
    println!("the Fig. 1 instance is (1,1,1): m = 5, i = 1, T = 4/5");
    println!("(the marked-graph model agrees with simulation on every row, including");
    println!(" half-station segments the closed form does not address)");

    let mut report = Report::new("exp_reconvergent");
    report
        .push("fork_joins_checked", rows.len() as u64)
        .push("mismatches", mismatches)
        .push("ok", mismatches == 0);
    emit_report(&report);
}

//! EXP-T6 — path equalization: "to get the maximum T from a feedforward
//! arrangement, it is necessary to insert enough spare relay stations to
//! make all converging paths of the same length."

use lip_analysis::equalize;
use lip_bench::{banner, emit_report, mark, table, Report};
use lip_graph::generate;
use lip_sim::measure;

fn main() {
    banner(
        "EXP-T6",
        "path equalization on unbalanced feed-forward systems",
        "inserting spare relay stations restores T = 1",
    );

    let mut rows = Vec::new();
    let mut restored = 0u64;
    let mut inserted_total = 0u64;
    for (r1, r2, s) in [
        (1usize, 1usize, 1usize),
        (2, 1, 1),
        (2, 2, 1),
        (3, 1, 1),
        (3, 2, 0),
        (0, 3, 1),
        (1, 1, 3), // reversed imbalance: the "short" branch is longer
    ] {
        let mut f = generate::fork_join(r1, r2, s);
        let before = measure(&f.netlist)
            .expect("measures")
            .system_throughput()
            .expect("one sink");
        let report = equalize(&mut f.netlist).expect("feed-forward");
        f.netlist.validate().expect("still legal");
        let after = measure(&f.netlist)
            .expect("measures")
            .system_throughput()
            .expect("one sink");
        restored += u64::from(after.to_string() == "1/1");
        inserted_total += report.total_inserted() as u64;
        rows.push(vec![
            format!("fork_join({r1},{r2},{s})"),
            before.to_string(),
            report.total_inserted().to_string(),
            after.to_string(),
            mark(after.to_string() == "1/1").into(),
        ]);
    }
    println!(
        "{}",
        table(
            &["system", "T before", "spares inserted", "T after", "check"],
            &rows
        )
    );
    println!("every unbalanced system reaches T = 1 after equalization");

    let mut json = Report::new("exp_equalization");
    json.push("systems", rows.len() as u64)
        .push("restored_to_unit_throughput", restored)
        .push("spares_inserted_total", inserted_total)
        .push("ok", restored == rows.len() as u64);
    emit_report(&json);
}

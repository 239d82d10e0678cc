//! EXP-A4 — clock gating activity: the third shell duty quantified.
//!
//! Paper: the shell performs "Clock Gating: a module waiting for new
//! data and/or stopped keeps its present state." Every cycle a shell
//! does not fire is a gated cycle — the protocol's power dividend. In a
//! connected LID, steady-state token conservation forces every shell to
//! the same firing rate, the system throughput `T`; the gated fraction
//! is exactly `1 − T`.

use lip_bench::{banner, emit_report, mark, table, Report};
use lip_core::RelayKind;
use lip_graph::generate;
use lip_sim::measure::{measure, measure_activity};

fn main() {
    banner(
        "EXP-A4",
        "clock-gating activity per shell",
        "every shell of a connected LID fires at the system rate T; 1 − T of all cycles are clock-gated",
    );

    let mut rows = Vec::new();
    let mut uniform_systems = 0u64;
    let mut case = |name: String, netlist: &lip_graph::Netlist| {
        let t = measure(netlist)
            .expect("measures")
            .system_throughput()
            .expect("one sink");
        let acts = measure_activity(netlist).expect("measures");
        let uniform = acts.iter().all(|a| a.utilisation == t);
        uniform_systems += u64::from(uniform);
        let gated = 1.0 - t.to_f64();
        rows.push(vec![
            name,
            acts.len().to_string(),
            t.to_string(),
            format!("{:.1}%", gated * 100.0),
            mark(uniform).into(),
        ]);
    };

    case("Fig. 1 fork-join".into(), &generate::fig1().netlist);
    for (s, r) in [(2usize, 1usize), (2, 2), (1, 3)] {
        case(
            format!("ring({s},{r})"),
            &generate::ring(s, r, RelayKind::Full).netlist,
        );
    }
    case("tree(2,2,1)".into(), &generate::tree(2, 2, 1).netlist);
    for (r1, r2, sh) in [(2usize, 1usize, 1usize), (3, 1, 1)] {
        case(
            format!("fork_join({r1},{r2},{sh})"),
            &generate::fork_join(r1, r2, sh).netlist,
        );
    }
    case(
        "coupled composition".into(),
        &generate::composed_coupled(1, 1, 1, 1, 2).netlist,
    );

    println!(
        "{}",
        table(
            &[
                "system",
                "shells",
                "T (= per-shell rate)",
                "gated cycles",
                "uniform"
            ],
            &rows
        )
    );
    println!("the protocol's throughput loss is symmetric power savings: a ring at");
    println!("T = 1/4 clock-gates 75% of every shell's cycles with zero extra control");

    let systems = rows.len() as u64;
    let mut report = Report::new("exp_clock_gating");
    report
        .push("systems", systems)
        .push("uniform_systems", uniform_systems)
        .push("ok", uniform_systems == systems);
    emit_report(&report);
}

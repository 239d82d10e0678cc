//! EXP-T7 — transient length: "after a number of clock cycles that are
//! dependent on the system each part of it behaves in a periodic
//! fashion. ... the transient length is related to the number of relay
//! stations and shells, and can be predicted upfront."

use lip_analysis::transient_bound;
use lip_bench::{banner, emit_report, mark, table, Report};
use lip_core::RelayKind;
use lip_graph::generate;
use lip_sim::measure::find_periodicity;
use lip_sim::System;

fn main() {
    banner(
        "EXP-T7",
        "transient length vs the upfront bound",
        "the control state becomes periodic within a bound computable from shell/relay counts",
    );

    let mut rows = Vec::new();
    let mut within_bound = 0u64;
    let mut case = |name: String, netlist: &lip_graph::Netlist| {
        let bound = transient_bound(netlist);
        let mut sys = System::new(netlist).expect("elaborates");
        let p = find_periodicity(&mut sys, 100_000).expect("periodic environment");
        within_bound += u64::from(p.transient <= bound);
        rows.push(vec![
            name,
            netlist.census().shells.to_string(),
            netlist.census().relays().to_string(),
            p.transient.to_string(),
            p.period.to_string(),
            bound.to_string(),
            mark(p.transient <= bound).into(),
        ]);
    };

    case("Fig. 1 fork-join".into(), &generate::fig1().netlist);
    for (s, r) in [(2usize, 1usize), (3, 2), (4, 4)] {
        case(
            format!("ring({s},{r})"),
            &generate::ring(s, r, RelayKind::Full).netlist,
        );
    }
    for (d, f, r) in [(2usize, 2usize, 1usize), (3, 2, 2)] {
        case(
            format!("tree({d},{f},{r})"),
            &generate::tree(d, f, r).netlist,
        );
    }
    for (l, s, rs, rr) in [(2usize, 1usize, 2usize, 1usize), (3, 1, 1, 2)] {
        case(
            format!("composed({l},{s},{rs},{rr})"),
            &generate::composed(l, s, rs, rr).netlist,
        );
    }
    for seed in 0..12u64 {
        let (fam, netlist) = generate::random_family(seed);
        if netlist.validate().is_ok() {
            case(format!("random {fam:?} #{seed}"), &netlist);
        }
    }

    println!(
        "{}",
        table(
            &[
                "system",
                "shells",
                "relays",
                "transient",
                "period",
                "bound",
                "check"
            ],
            &rows
        )
    );
    println!("every system goes periodic within the upfront bound");

    let systems = rows.len() as u64;
    let mut report = Report::new("exp_transient");
    report
        .push("systems", systems)
        .push("within_bound", within_bound)
        .push("ok", within_bound == systems);
    emit_report(&report);
}

//! EXP-A1 — equalizer cost ablation: full vs half spare stations.
//!
//! Path equalization inserts *full* relay stations (2 registers each) on
//! the faster branch and restores `T = 1` exactly. Half stations are
//! half the storage (1 register) and add no latency — each one appended
//! to the short branch adds a token *and* a cycle to the implicit loop,
//! so throughput climbs `(m−i)/m → (m−i+1)/(m+1) → …` asymptotically
//! towards 1 without reaching it. This table quantifies the trade-off
//! the paper's "spare relay stations" remark leaves open.

use lip_bench::{banner, emit_report, table, Report};
use lip_core::RelayKind;
use lip_graph::generate;
use lip_sim::measure;

fn main() {
    banner(
        "EXP-A1",
        "equalizing with full vs half spare stations",
        "full spares reach T = 1 exactly; half spares approach it asymptotically at half the storage",
    );

    let mut rows = Vec::new();
    let mut full_reaches_unit = false;
    let mut best_half = 0.0f64;
    for spares in 0..=4usize {
        for kind in [RelayKind::Full, RelayKind::Half] {
            // Fig. 1 instance with `spares` extra stations appended to
            // the short branch.
            let mut f = generate::fig1();
            let mut target = f
                .netlist
                .out_channel(f.short_relays[0], 0)
                .expect("short branch is connected");
            for _ in 0..spares {
                let rs = f.netlist.insert_relay_on_channel(target, kind);
                target = f.netlist.out_channel(rs, 0).expect("just connected");
            }
            f.netlist.validate().expect("legal");
            let t = measure(&f.netlist)
                .expect("measures")
                .system_throughput()
                .expect("one sink");
            let registers = spares * kind.capacity();
            match kind {
                RelayKind::Full if t.to_f64() == 1.0 => full_reaches_unit = true,
                RelayKind::Half => best_half = best_half.max(t.to_f64()),
                _ => {}
            }
            rows.push(vec![
                spares.to_string(),
                kind.to_string(),
                registers.to_string(),
                t.to_string(),
                format!("{:.4}", t.to_f64()),
            ]);
        }
    }
    println!(
        "{}",
        table(
            &["spares", "kind", "extra registers", "T", "T (dec)"],
            &rows
        )
    );
    println!("one full spare (2 registers) buys T = 1 exactly; half spares (1 register");
    println!("each) climb 4/5 -> 5/6 -> 6/7 -> ... and never close the gap — the");
    println!("paper's full relay station is the right equalizer, the half station the");
    println!("right minimum-memory insert");

    let mut report = Report::new("exp_ablation_equalizer");
    report
        .push("configurations", rows.len() as u64)
        .push("full_spare_reaches_unit", full_reaches_unit)
        .push("best_half_spare_throughput", best_half)
        .push("ok", full_reaches_unit && best_half < 1.0);
    emit_report(&report);
}

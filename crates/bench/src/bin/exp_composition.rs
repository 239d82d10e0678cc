//! EXP-T4 — compositions: "the most general topology is a feed-forward
//! combination of self-interacting loops. It is possible to prove that
//! the slowest subtopology ... will force the system to slow down to its
//! speed. The protocol itself will adapt to such a speed without any
//! need for path equalization."

use lip_analysis::{loop_throughput, predict_throughput, reconvergent_throughput};
use lip_bench::{banner, emit_report, mark, table, Report};
use lip_graph::generate;
use lip_sim::measure;

fn main() {
    banner(
        "EXP-T4",
        "composed systems: slowest sub-topology dictates the speed",
        "system T = min(front-end T, loop T); no equalization needed — the protocol adapts",
    );

    let mut rows = Vec::new();
    let mut model_mismatches = 0u64;
    for (long, short, ring_s, ring_r) in [
        (2usize, 1usize, 1usize, 2usize), // slow ring dominates
        (2, 1, 2, 1),                     // comparable
        (3, 0, 2, 1),                     // slow front-end? vs 2/3 ring
        (1, 1, 1, 3),                     // very slow ring
        (3, 1, 3, 1),                     // front-end 5/7 vs ring 3/4
        (2, 2, 2, 2),                     // balanced front-end, ring 1/2
    ] {
        let c = generate::composed(long, short, ring_s, ring_r);
        // Sub-topology speeds: the front-end fork feeds the ring through
        // independent sources here, so its reconvergence decouples; the
        // binding constraints are the ring and any front-end imbalance
        // loop. The general model handles it all:
        let predicted = predict_throughput(&c.netlist).expect("periodic");
        let ring_t = loop_throughput(ring_s, ring_r);
        let front_t = reconvergent_throughput(long + short, 1, long.abs_diff(short));
        let measured = measure(&c.netlist)
            .expect("composition measures")
            .system_throughput()
            .expect("one sink");
        let min_sub = if ring_t.to_f64() <= front_t.to_f64() {
            ring_t
        } else {
            front_t
        };
        model_mismatches += u64::from(measured != predicted);
        rows.push(vec![
            format!("fork({long},{short}) -> ring({ring_s},{ring_r})"),
            front_t.to_string(),
            ring_t.to_string(),
            min_sub.to_string(),
            predicted.to_string(),
            measured.to_string(),
            mark(measured == predicted).into(),
        ]);
    }
    println!(
        "{}",
        table(
            &[
                "composition",
                "front T",
                "loop T",
                "min",
                "model",
                "measured",
                "check"
            ],
            &rows
        )
    );
    println!("(the model column is the marked-graph minimum cycle ratio: it always");
    println!(" matches simulation; `min` is the coarse two-formula bound — the binding");
    println!(" sub-topology. Independent sources decouple the front-end, so when the");
    println!(" ring is the slowest cycle the bound is tight.)");
    println!();

    // Coupled compositions: a *binding* fork-join front-end. Now the
    // min() of the two closed forms is exact.
    let decoupled = rows.len() as u64;
    let mut rows = Vec::new();
    let mut min_mismatches = 0u64;
    for (r1, r2, s, rs_, rr) in [
        (1usize, 1usize, 1usize, 1usize, 2usize), // ring 1/3 slowest
        (2, 2, 1, 2, 1),                          // front 4/7 vs ring 2/3
        (1, 1, 1, 3, 1),                          // front 4/5 vs ring 3/4
        (2, 1, 1, 4, 1),                          // front 4/6 vs ring 4/5
        (1, 1, 2, 1, 1),                          // balanced front vs ring 1/2
    ] {
        let c = generate::composed_coupled(r1, r2, s, rs_, rr);
        let front = {
            let long = r1 + r2;
            let (m, i) = if long >= s {
                ((long + s + 2) as u64, (long - s) as u64)
            } else {
                ((long + s + 1) as u64, (s - long) as u64)
            };
            reconvergent_throughput(
                usize::try_from(m).expect("fits") - 2,
                2,
                usize::try_from(i).expect("fits"),
            )
        };
        let ring_t = loop_throughput(rs_, rr);
        let min_sub = if ring_t.to_f64() <= front.to_f64() {
            ring_t
        } else {
            front
        };
        let measured = measure(&c.netlist)
            .expect("measures")
            .system_throughput()
            .expect("one sink");
        min_mismatches += u64::from(measured != min_sub);
        rows.push(vec![
            format!("forkjoin({r1},{r2},{s}) -> ring({rs_},{rr})"),
            front.to_string(),
            ring_t.to_string(),
            min_sub.to_string(),
            measured.to_string(),
            mark(measured == min_sub).into(),
        ]);
    }
    println!(
        "{}",
        table(
            &[
                "coupled composition",
                "front T",
                "loop T",
                "min",
                "measured",
                "check"
            ],
            &rows
        )
    );
    println!("with a binding (fork-join) front-end, min(sub-topology throughputs) is");
    println!("exact — the slowest sub-topology dictates the system speed, with no");
    println!("equalization applied anywhere");

    let mut report = Report::new("exp_composition");
    report
        .push("decoupled_compositions", decoupled)
        .push("coupled_compositions", rows.len() as u64)
        .push("model_mismatches", model_mismatches)
        .push("min_bound_mismatches", min_mismatches)
        .push("ok", model_mismatches == 0 && min_mismatches == 0);
    emit_report(&report);
}

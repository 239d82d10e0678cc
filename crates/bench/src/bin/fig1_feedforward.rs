//! EXP-F1 — Fig. 1: feed-forward (reconvergent) topology evolution.
//!
//! Paper: "After the initial transient, the situation becomes periodic,
//! and the output utters an invalid datum every 5 cycles. ... In the
//! present case, n = 5, while i = 1. The number of valid data every 4
//! periods is 4 and the throughput is 4/5."

use lip_bench::{banner, emit_report, mark, table, Report};
use lip_graph::{generate, topology};
use lip_obs::{MetricsRegistry, Probe, Tee, TransientDetector};
use lip_sim::{measure, Evolution, Ratio, SkeletonSystem};

/// Feeds the sink's per-cycle informative/void stream into a
/// [`TransientDetector`]: a [`Probe::consume`] marks the cycle
/// informative, a [`Probe::void_in`] leaves it void.
struct SinkTransient {
    det: TransientDetector,
    informative: bool,
}

impl Probe for SinkTransient {
    fn event(&mut self, _ev: lip_obs::Event) {}

    fn consume(&mut self, _cycle: u64, _ch: u32, _lane: u16) {
        self.informative = true;
    }

    fn end_cycle(&mut self, _cycle: u64) {
        self.det.push(self.informative);
        self.informative = false;
    }
}

fn main() {
    banner(
        "EXP-F1",
        "Fig. 1 — feed-forward topology evolution",
        "periodic after transient; one void at the output every n = 5 cycles; T = 4/5",
    );

    let fig1 = generate::fig1();
    println!("topology: {}\n", fig1.netlist);
    let ev = Evolution::record(&fig1.netlist, &[fig1.fork, fig1.mid, fig1.join], 20)
        .expect("fig1 elaborates");
    println!("{ev}");

    let m = measure(&fig1.netlist).expect("fig1 measures");
    let p = m.periodicity.expect("fig1 is periodic");
    let t = m.system_throughput().expect("one sink");

    let rows = vec![
        vec![
            "period n".into(),
            "5".into(),
            p.period.to_string(),
            mark(p.period == 5).into(),
        ],
        vec![
            "voids per period".into(),
            "1 (i = 1)".into(),
            format!("{}", p.period - t.num() * p.period / t.den()),
            mark(p.period - t.num() * p.period / t.den() == 1).into(),
        ],
        vec![
            "throughput T".into(),
            "4/5".into(),
            t.to_string(),
            mark(t == Ratio::new(4, 5)).into(),
        ],
        vec![
            "transient".into(),
            "system dependent".into(),
            format!("{} cycles", p.transient),
            "ok".into(),
        ],
    ];
    println!(
        "{}",
        table(&["figure quantity", "paper", "measured", "check"], &rows)
    );

    // Probed re-run: count the same numbers from the observability
    // layer instead of the measurement machinery, as a cross-check.
    const CYCLES: u64 = 100;
    let mut sys = SkeletonSystem::new(&fig1.netlist).expect("fig1 elaborates");
    let prog = sys.program().clone();
    let mut probe = Tee(
        MetricsRegistry::new(prog.topology()),
        SinkTransient {
            det: TransientDetector::new(4, 5),
            informative: false,
        },
    );
    sys.run_probed(CYCLES, &mut probe);
    let Tee(metrics, transient) = probe;

    let sink_ch = prog.sink_input_channel(0) as usize;
    let (consumed, cycles) = metrics.sink_throughput(sink_ch).expect("sink channel");
    let voids = metrics.void_ins(sink_ch);
    let settle = transient.det.transient().expect("fig1 settles");
    let (st_num, st_den) = transient.det.steady_measured().expect("fig1 settles");
    let bound = topology::longest_latency(&fig1.netlist).expect("fig1 is acyclic");
    println!("probed over {cycles} cycles: {consumed} informative, {voids} voids at the sink");
    println!("steady state: {st_num}/{st_den} informative — one void per 5 cycles");
    println!("observed transient: {settle} cycles (relay-path bound: {bound})\n");
    assert_eq!(consumed + voids, cycles, "sink sees a token every cycle");
    assert_eq!(
        st_num * 5,
        st_den * 4,
        "steady-state throughput must be 4/5"
    );
    assert_eq!((st_den - st_num) * 5, st_den, "one void every 5 cycles");
    assert!(settle <= bound, "transient exceeds longest relay path");

    let mut report = Report::new("fig1_feedforward");
    report
        .push("period", p.period)
        .push("transient", p.transient)
        .push_ratio("throughput", t.num(), t.den())
        .push("probed_cycles", cycles)
        .push("probed_consumed", consumed)
        .push("probed_voids", voids)
        .push_ratio("probed_steady_throughput", st_num, st_den)
        .push("probed_transient", settle)
        .push("transient_bound", bound)
        .push("total_fires", metrics.total_fires())
        .push(
            "ok",
            p.period == 5 && t == Ratio::new(4, 5) && st_num * 5 == st_den * 4,
        );
    emit_report(&report);
}

//! One benchmark run: set-up, the closed op loop, and the metrics.
//!
//! One client runs the ops back to back (a closed loop): the next op
//! starts when the previous one has returned. Only the op's own calls
//! are timed; checks, digests and attribution replays run between ops,
//! outside every measured interval.

use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::{drift_witness_ms, peak_rss_mb, quantile, Digest};
use crate::trace::Tracer;
use crate::workload::{
    self, attribute, check, count_lint_lassos, run, run_traced, setup, Bare, Layers, Outcome,
    Workload,
};

/// Set-ups timed before the warm-up pass; one more follows every timed
/// pass. `setup_s` is the fastest of them all.
pub const SETUP_REPS_BEFORE: usize = 3;

/// Seconds of compute before anything is timed. A vCPU that was idle
/// runs a fixed loop about half as fast for its first ~0.2 s of work
/// (the drift witness measured 100–130 ms cold against 53 ms warm on a
/// 2-vCPU KVM guest), which would land on the first set-ups.
pub const WARM_UP_S: f64 = 0.5;

/// A named metric value with its unit.
pub type Metric = (&'static str, f64, &'static str);

/// The result of one run.
#[derive(Debug)]
pub struct Report {
    /// Ops attempted.
    pub attempted: usize,
    /// Ops whose output failed its check.
    pub failed: usize,
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Digest of every exact result, in op order.
    pub digest: String,
    /// Extra facts for the information line: (key, JSON value).
    pub info: Vec<(&'static str, String)>,
}

/// The untraced run: end-to-end metrics.
///
/// After [`WARM_UP_S`] of compute, set-up runs [`SETUP_REPS_BEFORE`]
/// times; the last set-up's corpus is one pass over the workload's ops.
/// A warm-up pass runs every op and checks its output in full; then
/// [`Workload::passes`] timed passes run the same ops, each of which must
/// reproduce the warm-up's exact results. Each timed pass is one closed
/// loop: one client runs the fixed list of at least 100 ops back to
/// back. A further set-up is timed after each timed pass.
///
/// Every op thus runs once per timed pass, its runs spread over the
/// whole run, and the timed metrics are taken over each op's fastest
/// run: `ops_per_s` is the ops of a pass over the sum of their fastest
/// times, the rate of a closed loop in which every op runs as fast as
/// it was seen to; `op_p50_ms` and `op_p90_ms` are percentiles of the
/// fastest times (one sample per op, so at least ten beyond p90).
/// `setup_s` is likewise the fastest set-up.
///
/// Why the fastest: the benchmark runs on a shared 2-vCPU guest whose
/// host slows these workloads by up to 2× for seconds to minutes at a
/// time. Over one 6-minute stretch of back-to-back exact-sweep passes
/// (at 256 lanes), 30-second windows cut from it had an IQR/median of
/// 0.23–0.28 for the whole-window closed-loop rate and 0.25–0.35 for its
/// fastest pass, against 0.14–0.22 for the per-op fastest of 12
/// passes: an op needs a quiet moment only as long as itself, a pass
/// as long as the pass. The whole-run rate and percentiles, the
/// fastest pass, every pass rate and every set-up time go on the
/// information line.
#[must_use]
pub fn untraced(workload: Workload, seed: u64, seconds: u64) -> Report {
    spin(WARM_UP_S);
    let witness_start = drift_witness_ms();
    let mut setups = Vec::new();
    let mut timed_setup = || {
        let t = Instant::now();
        let corpus = setup(workload, seed);
        setups.push(t.elapsed().as_secs_f64());
        corpus
    };
    let mut corpus = timed_setup();
    for _ in 1..SETUP_REPS_BEFORE {
        drop(corpus);
        corpus = timed_setup();
    }
    count_lint_lassos(workload, &mut corpus);
    let pass_len = corpus.len();
    let passes = workload.passes(seconds);

    let mut digest = Digest::default();
    let mut failed = 0;
    let mut expected = Vec::with_capacity(pass_len);
    let (mut lane_cycles, mut states) = (0u64, 0u64);
    for (i, op) in corpus.iter().enumerate() {
        let out = run(workload, op, &mut Bare);
        let c = check(op, i, &out);
        failed += usize::from(!c.ok);
        lane_cycles += c.lane_cycles;
        states += c.states;
        let f = fingerprint(&out);
        digest.str(&f);
        expected.push(f);
    }

    let mut times: Vec<Vec<f64>> = Vec::with_capacity(passes);
    for _ in 0..passes {
        let mut pass = Vec::with_capacity(pass_len);
        for (i, op) in corpus.iter().enumerate() {
            let t = Instant::now();
            let out = run(workload, op, &mut Bare);
            pass.push(t.elapsed().as_secs_f64());
            failed += usize::from(fingerprint(&out) != expected[i]);
        }
        times.push(pass);
        drop(timed_setup());
    }
    let witness_end = drift_witness_ms();

    let fastest: Vec<f64> = (0..pass_len)
        .map(|i| times.iter().map(|p| p[i]).fold(f64::INFINITY, f64::min))
        .collect();
    let fastest_s: f64 = fastest.iter().sum();
    let pass_s: Vec<f64> = times.iter().map(|p| p.iter().sum()).collect();
    let pass_rates: Vec<f64> = pass_s.iter().map(|s| pass_len as f64 / s).collect();
    let all = times.concat();
    let all_s: f64 = pass_s.iter().sum();
    let metrics = vec![
        ("setup_s", quantile(&setups, 0.0), "s"),
        ("ops_per_s", pass_len as f64 / fastest_s, "1/s"),
        ("op_p50_ms", quantile(&fastest, 0.5) * 1e3, "ms"),
        ("op_p90_ms", quantile(&fastest, 0.9) * 1e3, "ms"),
        ("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MiB"),
        ("lane_cycles_per_s", lane_cycles as f64 / fastest_s, "1/s"),
        ("states_per_s", states as f64 / fastest_s, "1/s"),
    ];
    Report {
        attempted: pass_len * (passes + 1),
        failed,
        metrics,
        digest: digest.hex(),
        info: vec![
            ("ops_per_pass", pass_len.to_string()),
            ("timed_passes", passes.to_string()),
            ("latency_samples", fastest.len().to_string()),
            ("setup_runs_s", json_list(&setups)),
            ("pass_ops_per_s", json_list(&pass_rates)),
            (
                "fastest_pass_ops_per_s",
                pass_rates.iter().copied().fold(0.0, f64::max).to_string(),
            ),
            (
                "whole_run",
                format!(
                    "{{\"ops_per_s\":{},\"op_p50_ms\":{},\"op_p90_ms\":{},\"latency_samples\":{}}}",
                    all.len() as f64 / all_s,
                    quantile(&all, 0.5) * 1e3,
                    quantile(&all, 0.9) * 1e3,
                    all.len()
                ),
            ),
            (
                "drift_witness_ms",
                format!("{{\"start\":{witness_start},\"end\":{witness_end}}}"),
            ),
        ],
    }
}

/// Keep the CPU busy for `seconds`.
fn spin(seconds: f64) {
    let t = Instant::now();
    while t.elapsed().as_secs_f64() < seconds {
        std::hint::black_box(drift_witness_ms());
    }
}

/// The traced run: per-layer metrics, and the spans as a Chrome trace.
///
/// After a warm-up pass, every op runs once untraced and once traced,
/// back to back, so the tracing overhead is the ratio of the two
/// `ops_per_s`. Attribution replays and checks run after the traced
/// pass. Counts cover the traced pass and repeat exactly for a
/// given seed; the digest equals the untraced run's.
#[must_use]
pub fn traced(workload: Workload, seed: u64) -> (Report, Tracer) {
    let corpus = setup(workload, seed);
    let n = corpus.len();

    for op in &corpus {
        drop(run(workload, op, &mut Bare));
    }
    // Each op runs untraced and traced back to back, alternating which
    // goes first, so host drift cancels out of the overhead.
    let mut tr = Tracer::default();
    let mut layers = Layers::default();
    let mut untraced_s = 0.0;
    let mut bare = |op| {
        let t = Instant::now();
        drop(run(workload, op, &mut Bare));
        untraced_s += t.elapsed().as_secs_f64();
    };
    let traced: Vec<_> = corpus
        .iter()
        .enumerate()
        .map(|(i, op)| {
            if i % 2 == 0 {
                bare(op);
            }
            let out = run_traced(workload, op, i, &mut tr, &mut layers);
            if i % 2 == 1 {
                bare(op);
            }
            out
        })
        .collect();
    let mut digest = Digest::default();
    let mut failed = 0;
    for (i, (op, (out, self_ns))) in corpus.iter().zip(&traced).enumerate() {
        attribute(op, i, out, *self_ns, &mut tr, &mut layers);
        failed += usize::from(!check(op, i, out).ok);
        digest.str(&fingerprint(out));
    }

    let untraced_rate = n as f64 / untraced_s;
    let traced_rate = n as f64 / (tr.root_ns() as f64 / 1e9);
    let metrics = layer_metrics(&tr, &layers, untraced_rate, traced_rate);
    let report = Report {
        attempted: n,
        failed,
        metrics,
        digest: digest.hex(),
        info: vec![("spans", tr.spans.len().to_string())],
    };
    (report, tr)
}

/// Digest of one op's exact results.
fn fingerprint(out: &Outcome) -> String {
    let mut d = Digest::default();
    workload::digest(out, &mut d);
    d.hex()
}

/// Every per-layer metric, for every workload: a layer the workload
/// never calls reports 0.
fn layer_metrics(tr: &Tracer, l: &Layers, untraced_rate: f64, traced_rate: f64) -> Vec<Metric> {
    let own = tr.self_ns();
    let rep = tr.replay_ns();
    let ms = |ns: u64| ns as f64 / 1e6;
    let own_ms = |layer: &str| ms(own.get(layer).copied().unwrap_or(0));
    let rep_ms = |layer: &str| ms(rep.get(layer).copied().unwrap_or(0));
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    vec![
        ("sim.compile.busy_ms", own_ms("sim.compile"), "ms"),
        ("sim.compile.calls", l.compile_calls as f64, "count"),
        ("sim.compile.tape_ops", l.tape_ops as f64, "count"),
        ("sim.kernel.busy_ms", rep_ms("sim.kernel"), "ms"),
        (
            "sim.kernel.lane_cycles",
            l.kernel_lane_cycles as f64,
            "count",
        ),
        (
            "sim.kernel.ops_retired",
            l.kernel_ops_retired as f64,
            "count",
        ),
        ("sim.detect.busy_ms", ms(l.detect_ns), "ms"),
        (
            "sim.detect.cycles_executed",
            l.cycles_executed as f64,
            "count",
        ),
        ("sim.detect.cycles_needed", l.cycles_needed as f64, "count"),
        (
            "sim.detect.lanes_converged_ratio",
            ratio(l.lanes_converged.0, l.lanes_converged.1),
            "ratio",
        ),
        ("sim.patch.busy_ms", own_ms("sim.patch"), "ms"),
        ("sim.patch.edits", l.patch_edits as f64, "count"),
        ("lint.rules.busy_ms", own_ms("lint.rules"), "ms"),
        ("lint.rules.diagnostics", l.diagnostics as f64, "count"),
        ("lint.render.busy_ms", own_ms("lint.render"), "ms"),
        ("graph.parse.busy_ms", own_ms("graph.parse"), "ms"),
        ("graph.write.busy_ms", own_ms("graph.write"), "ms"),
        ("analysis.search.busy_ms", own_ms("analysis.search"), "ms"),
        ("sim.cache.hits", l.cache.0 as f64, "count"),
        ("sim.cache.misses", l.cache.1 as f64, "count"),
        (
            "sim.cache.hit_ratio",
            ratio(l.cache.0, l.cache.0 + l.cache.1),
            "ratio",
        ),
        ("mc.declared.busy_ms", own_ms("mc.declared"), "ms"),
        ("mc.declared.states", l.declared_states as f64, "count"),
        ("mc.adversarial.busy_ms", own_ms("mc.adversarial"), "ms"),
        ("mc.adversarial.states", l.adversarial.0 as f64, "count"),
        (
            "mc.adversarial.transitions",
            l.adversarial.1 as f64,
            "count",
        ),
        (
            "mc.adversarial.peak_arena_mb",
            l.peak_arena_bytes as f64 / (1024.0 * 1024.0),
            "MiB",
        ),
        (
            "op.self_ms",
            (own_ms("op") - ms(l.detect_ns) - rep_ms("sim.kernel")).max(0.0),
            "ms",
        ),
        ("trace.spans", tr.spans.len() as f64, "count"),
        ("trace.untraced_ops_per_s", untraced_rate, "1/s"),
        ("trace.traced_ops_per_s", traced_rate, "1/s"),
        (
            "trace.overhead_pct",
            (untraced_rate / traced_rate - 1.0) * 100.0,
            "%",
        ),
    ]
}

/// `[a,b,…]` with every digit.
fn json_list(v: &[f64]) -> String {
    let mut s = String::from("[");
    for (i, x) in v.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{x}");
    }
    s.push(']');
    s
}

impl Report {
    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    #[must_use]
    pub fn result_json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                m.push_str(", ");
            }
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(m, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        )
    }

    /// The information line printed before the result.
    #[must_use]
    pub fn info_json(&self, workload: Workload, seed: u64, seconds: u64) -> String {
        let mut s = format!(
            "{{\"info\": {{\"workload\": \"{}\", \"seed\": {seed}, \"seconds\": {seconds}, \
             \"digest\": \"{}\"",
            workload.name(),
            self.digest
        );
        for (k, v) in &self.info {
            let _ = write!(s, ", \"{k}\": {v}");
        }
        s.push_str("}}");
        s
    }
}

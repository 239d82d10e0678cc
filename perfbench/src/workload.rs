//! The four workloads: set-up, the timed op, its traced twin, and the
//! untimed check of every op's output.
//!
//! | workload       | op (one public call or session)                     | dominant layer   |
//! |----------------|-----------------------------------------------------|------------------|
//! | `exact_sweep`  | `measure_batch_periodic_wide` at 64 lanes           | `sim.detect`     |
//! | `window_sweep` | `measure_batch_wide` at 256 lanes, fixed window     | `sim.kernel`     |
//! | `prove`        | `check_declared` + `check_adversarial`              | `mc.adversarial` |
//! | `edit_loop`    | parse, lint, size relays, render, write             | `analysis.search`|
//!
//! The edit loop holds back `lip_lint::apply_fixits_compiled`: on
//! fork-joins with over-provisioned FIFOs it applies the LIP004 and LIP007
//! fixes in one pass and the result still trips LIP004 and can run slower
//! than its input, so every session that calls it on such a design fails
//! its check. The corpus keeps those designs; the fix-it step rejoins the
//! session once the pass is sound.

use std::collections::HashSet;
use std::sync::Arc;

use lip_analysis::{size_each_relay, CapacityChoice};
use lip_core::{Pattern, RelayKind};
use lip_graph::{parse_netlist_spanned, write_netlist, Netlist};
use lip_lint::{lint, render_json, Diagnostic};
use lip_mc::{
    check_adversarial, check_declared, confirm_stuck, AdversarialProof, DeclaredProof, McConfig,
    Verdict,
};
use lip_obs::flight::{self, FlightRecorder};
use lip_sim::{
    measure, measure_batch_periodic_wide, measure_batch_wide, BatchEngine, BatchMeasurement,
    BatchPeriodicMeasurement, LanePatterns, LaneWord, SettleProgram, SkeletonSystem,
    ThroughputCache,
};

use crate::corpus::{
    admitted, edit_grid, endpoint_pattern, prepare, prove_grid, rekind_relays, schedule,
    sweep_grid, Band, Cell, Design, Rng,
};
use crate::stats::Digest;
use crate::trace::{Span, Tracer};

/// Lanes per exact-sweep op: one `u64` word, one lane per stall duty
/// of the ramp. The recurrence detector keeps every state of every lane
/// until it recurs, so an op's memory grows with its lanes; at 256 lanes
/// an op's working set overflowed the core's L2 and its speed followed
/// the shared host's memory traffic (see the crate README).
pub const EXACT_LANES: usize = 64;
type ExactWord = [u64; 1];
/// Lanes per window-sweep op: `[u64; 4]` words. The settle kernel keeps
/// no history, so its working set stays small at any width.
pub const WINDOW_LANES: usize = 256;
type WindowWord = [u64; 4];
/// Cycle budget of the exact sweep; every lane must converge within it.
const EXACT_BUDGET: u64 = 1 << 16;
/// Fixed window of the window sweep (a multiple of the ramp period 64).
pub const WINDOW: u64 = 16384;
/// Deepest FIFO the edit loop's relay sizing tries.
const MAX_CAP: u8 = 6;
/// Lanes per exact-sweep op re-proved by the model checker.
const PROVED_LANES: usize = 2;

/// Structural bands. The sweep band stops at four sinks: an 8-sink tree
/// alone needed a sixth of a pass and most of the detector's memory,
/// which made the exact sweep track the host's memory traffic. The
/// proof band keeps the adversarial state space under
/// `McConfig::default().max_states` so no verdict is `Unknown`.
const SWEEP_BAND: Band = Band {
    size: (4, 64),
    endpoints: (1, 5),
};
const PROVE_BAND: Band = Band {
    size: (5, 11),
    endpoints: (1, 3),
};
const EDIT_BAND: Band = Band {
    size: (4, 40),
    endpoints: (1, 9),
};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Exact per-lane throughput under 64 stall scenarios.
    ExactSweep,
    /// The same sweep over a fixed cycle window: kernel only.
    WindowSweep,
    /// Declared-environment and adversarial deadlock proofs.
    Prove,
    /// Design-edit sessions: lint, size, report.
    EditLoop,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::ExactSweep,
        Workload::WindowSweep,
        Workload::Prove,
        Workload::EditLoop,
    ];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ExactSweep => "exact_sweep",
            Workload::WindowSweep => "window_sweep",
            Workload::Prove => "prove",
            Workload::EditLoop => "edit_loop",
        }
    }

    /// Parse a command-line name.
    #[must_use]
    pub fn from_name(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Timed passes over the corpus for a run of `seconds` (after one
    /// warm-up pass). A fixed constant per workload sets the work, so the
    /// op list never depends on how fast the host or the commit is. At
    /// least five passes run; every pass has at least 100 ops.
    #[must_use]
    pub fn passes(self, seconds: u64) -> usize {
        // Passes per second of nominal run time, sized on a 2-vCPU x86
        // guest so that a run's timed ops take about three quarters of
        // `seconds`, leaving the rest for set-up, the checked warm-up
        // pass and a slow spell of the host. Each op's fastest time is
        // taken over these passes, so the more the steadier.
        let per_s = match self {
            Workload::ExactSweep => 1.0,
            Workload::WindowSweep => 0.65,
            Workload::Prove => 1.2,
            Workload::EditLoop => 0.6,
        };
        let nominal = (seconds as f64 * per_s).ceil() as usize;
        nominal.max(5)
    }

    /// Ops per structural cell in one pass, each with its own seeded
    /// environment: enough that set-up prepares well over a hundred
    /// designs and the seed barely moves the cost of a pass. The edit
    /// loop's cost per op spans two orders of magnitude with its drawn
    /// relay kinds and endpoint patterns; at 8 ops per cell its
    /// `ops_per_s` and `op_p90_ms` moved by 17–18% (IQR/median) across
    /// eight seeds, at 16 by 4–11%.
    #[must_use]
    pub fn variants(self) -> usize {
        match self {
            Workload::ExactSweep | Workload::WindowSweep => 4,
            Workload::Prove => 4,
            Workload::EditLoop => 16,
        }
    }

    /// Seed stream: the two sweeps share one corpus.
    fn stream(self) -> u64 {
        match self {
            Workload::ExactSweep | Workload::WindowSweep => 1,
            Workload::Prove => 2,
            Workload::EditLoop => 3,
        }
    }

    /// The structural grid the workload draws from.
    #[must_use]
    pub fn grid(self) -> Vec<Cell> {
        match self {
            Workload::ExactSweep | Workload::WindowSweep => sweep_grid(),
            Workload::Prove => prove_grid(),
            Workload::EditLoop => edit_grid(),
        }
    }

    /// The structural admission band.
    #[must_use]
    pub fn band(self) -> Band {
        match self {
            Workload::ExactSweep | Workload::WindowSweep => SWEEP_BAND,
            Workload::Prove => PROVE_BAND,
            Workload::EditLoop => EDIT_BAND,
        }
    }

    /// Structural cells one pass visits: the grid cells the band admits.
    #[must_use]
    pub fn cells(self) -> Vec<Cell> {
        admitted(&self.grid(), &self.band())
    }
}

/// One prepared op.
#[derive(Debug)]
pub struct Op {
    /// The op's design.
    pub design: Design,
    /// Per-lane environment (sweeps only).
    pub pats: Option<LanePatterns>,
    /// Edit loop only: cycles of the declared-environment lasso that
    /// `lint`'s model-checked rules (LIP006–LIP008) step on this design,
    /// counted once at set-up, after `setup_s` is timed.
    pub lint_lasso: u64,
}

/// Duty-ramp stall pattern: stop on exactly `duty` of every 64 cycles,
/// spread evenly (as in `exp_batch_sweep`).
fn duty_pattern(duty: usize) -> Pattern {
    Pattern::Cyclic(
        (0..64)
            .map(|c| (c + 1) * duty / 64 > c * duty / 64)
            .collect(),
    )
}

/// Sweep environment over `lanes` (a multiple of 64): lane `l`'s sink
/// `j` stalls on duty `(l + base + 17 j) % 64`, with `base` drawn from
/// the seed. Every pattern is a period-64 table row, so the kernel never
/// gathers per lane, and the lanes hold `lanes / 64` copies of each ramp
/// combination whatever `base` is: the seed moves scenarios between
/// lanes but not the work or memory a design's sweep needs.
fn sweep_patterns(program: &SettleProgram, lanes: usize, rng: &mut Rng) -> LanePatterns {
    let mut pats = LanePatterns::broadcast_wide(program, lanes);
    let base = rng.range(0, 63);
    for j in 0..program.sink_count() {
        for lane in 0..lanes {
            pats.set_sink(j, lane, duty_pattern((lane + base + 17 * j) % 64));
        }
    }
    pats
}

/// Build one pass of `workload` for `seed` — a run repeats it —
/// [`variants`](Workload::variants) ops per structural cell in a seeded
/// order, each with a fresh seeded environment (and, in the edit loop, a
/// distinct design).
///
/// # Panics
///
/// Panics if the edit loop cannot draw a distinct design for an op.
#[must_use]
pub fn setup(workload: Workload, seed: u64) -> Vec<Op> {
    let cells = workload.cells();
    let mut rng = Rng::new(seed, workload.stream());
    let order = schedule(&cells, workload.variants(), &mut rng);
    let mut seen = HashSet::new();
    order
        .iter()
        .enumerate()
        .map(|(i, cell)| {
            let name = format!("{}_{i}", cell.name());
            match workload {
                Workload::ExactSweep | Workload::WindowSweep => {
                    let design = prepare(name, &cell.netlist());
                    let lanes = if workload == Workload::ExactSweep {
                        EXACT_LANES
                    } else {
                        WINDOW_LANES
                    };
                    let pats = sweep_patterns(&design.program, lanes, &mut rng);
                    Op {
                        design,
                        pats: Some(pats),
                        lint_lasso: 0,
                    }
                }
                Workload::Prove => {
                    let mut n = cell.netlist();
                    set_endpoint_patterns(&mut n, &mut rng);
                    Op {
                        design: prepare(name, &n),
                        pats: None,
                        lint_lasso: 0,
                    }
                }
                Workload::EditLoop => {
                    let n = (0..64)
                        .map(|_| {
                            let mut n = cell.netlist();
                            rekind_relays(&mut n, &mut rng);
                            set_endpoint_patterns(&mut n, &mut rng);
                            n
                        })
                        .find(|n| seen.insert(write_netlist(n)))
                        .expect("edit loop draws a distinct design");
                    Op {
                        design: prepare(name, &n),
                        pats: None,
                        lint_lasso: 0,
                    }
                }
            }
        })
        .collect()
}

/// Count, for every edit-loop op, the lasso `lint`'s model check steps
/// on its design. Not part of the timed set-up: the count is a fixed
/// property of the input, the work is the op's own.
pub fn count_lint_lassos(workload: Workload, ops: &mut [Op]) {
    if workload != Workload::EditLoop {
        return;
    }
    for op in ops {
        op.lint_lasso = check_declared(&op.design.netlist, &McConfig::default())
            .map_or(0, |p| p.stem + p.period);
    }
}

fn set_endpoint_patterns(n: &mut Netlist, rng: &mut Rng) {
    for s in n.sources() {
        n.set_source_pattern(s, endpoint_pattern(rng));
    }
    for s in n.sinks() {
        n.set_sink_pattern(s, endpoint_pattern(rng));
    }
}

/// What one edit session produced.
#[derive(Debug)]
pub struct EditSession {
    /// Diagnostics on the input design.
    pub diags: Vec<Diagnostic>,
    /// Relay sizing of the design.
    pub choices: Vec<CapacityChoice>,
    /// Session cache hits and misses.
    pub cache: (u64, u64),
    /// Rendered JSON report.
    pub json: String,
    /// The design as written back to text.
    pub text: String,
}

/// The result of one op.
#[derive(Debug)]
pub enum Outcome {
    /// Exact sweep result.
    Exact(BatchPeriodicMeasurement),
    /// Window sweep result.
    Window(BatchMeasurement),
    /// Declared and adversarial proofs.
    Prove(Box<(Result<DeclaredProof, String>, AdversarialProof)>),
    /// Edit session result.
    Edit(Box<EditSession>),
    /// The op returned an error.
    Error(String),
}

/// How an op's public calls run: bare in the timed loop, inside spans
/// in the traced one. Generic, so the bare form compiles to the plain
/// calls.
pub trait Wrap {
    /// Run `f`, the call into `layer`.
    fn call<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T;
}

/// The timed loop's [`Wrap`]: no recording at all.
#[derive(Debug)]
pub struct Bare;

impl Wrap for Bare {
    #[inline]
    fn call<T>(&mut self, _: &'static str, f: impl FnOnce() -> T) -> T {
        f()
    }
}

/// The traced loop's [`Wrap`]: each call is a span under the op's root.
struct Spans<'a> {
    tr: &'a mut Tracer,
    op: usize,
    root: usize,
}

impl Wrap for Spans<'_> {
    fn call<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        self.tr.call(layer, self.op, Some(self.root), f)
    }
}

/// Run one op: its public calls and nothing else.
pub fn run<W: Wrap>(workload: Workload, op: &Op, w: &mut W) -> Outcome {
    let d = &op.design;
    match workload {
        Workload::ExactSweep => {
            let pats = op.pats.as_ref().expect("sweep ops carry lane patterns");
            measure_batch_periodic_wide::<ExactWord>(&d.netlist, pats, EXACT_BUDGET)
                .map_or_else(|e| Outcome::Error(e.to_string()), Outcome::Exact)
        }
        Workload::WindowSweep => {
            let pats = op.pats.as_ref().expect("sweep ops carry lane patterns");
            measure_batch_wide::<WindowWord>(&d.netlist, pats, WINDOW)
                .map_or_else(|e| Outcome::Error(e.to_string()), Outcome::Window)
        }
        Workload::Prove => {
            let cfg = McConfig::default();
            let declared = w.call("mc.declared", || check_declared(&d.netlist, &cfg));
            match w.call("mc.adversarial", || check_adversarial(&d.netlist, &cfg)) {
                Ok(a) => Outcome::Prove(Box::new((declared.map_err(|e| e.to_string()), a))),
                Err(e) => Outcome::Error(e.to_string()),
            }
        }
        Workload::EditLoop => {
            edit_session(d, w).map_or_else(Outcome::Error, |s| Outcome::Edit(Box::new(s)))
        }
    }
}

/// Per-layer counts and attributed times of a traced run. Busy times
/// of the layers an op calls directly come from the [`Tracer`].
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// Attributed recurrence-detection time, ns.
    pub detect_ns: u64,
    /// Settle programs compiled by the ops.
    pub compile_calls: u64,
    /// Tape ops of the programs the ops compiled.
    pub tape_ops: u64,
    /// Lane-cycles stepped by the kernel.
    pub kernel_lane_cycles: u64,
    /// Kernel ops retired.
    pub kernel_ops_retired: u64,
    /// Cycles the periodic sweeps executed.
    pub cycles_executed: u64,
    /// Cycles they needed: per op, the largest stem + period.
    pub cycles_needed: u64,
    /// Lanes that converged, and lanes swept, by periodic sweeps.
    pub lanes_converged: (u64, u64),
    /// Program patches the ops made.
    pub patch_edits: u64,
    /// Diagnostics reported.
    pub diagnostics: u64,
    /// Cache hits and misses.
    pub cache: (u64, u64),
    /// Declared-proof states.
    pub declared_states: u64,
    /// Adversarial states and transitions.
    pub adversarial: (u64, u64),
    /// Largest adversarial arena, bytes.
    pub peak_arena_bytes: u64,
}

/// Run op `i` inside a root span, its public calls as child spans and
/// the compiles and patches inside them adopted from an ambient flight
/// recorder (see [`Tracer::adopt`]), and count those into `layers`.
/// Returns the outcome and the op's self time in nanoseconds: its
/// duration minus that of its direct children.
pub fn run_traced(
    workload: Workload,
    op: &Op,
    i: usize,
    tr: &mut Tracer,
    layers: &mut Layers,
) -> (Outcome, u64) {
    let rec = FlightRecorder::new();
    let origin_ns = tr.now();
    flight::install(&rec);
    let root = tr.begin("op", i, None);
    let out = run(workload, op, &mut Spans { tr, op: i, root });
    tr.end(root);
    flight::uninstall();
    let (compiles, patches) = tr.adopt(&rec.drain(), origin_ns, i);
    layers.compile_calls += compiles;
    layers.tape_ops += compiles * op.design.program.kernel_op_count() as u64;
    layers.patch_edits += patches;
    let children: u64 = tr
        .spans
        .iter()
        .filter(|s| s.parent == Some(root))
        .map(Span::dur_ns)
        .sum();
    (out, tr.spans[root].dur_ns().saturating_sub(children))
}

/// Attribute traced op `i` (whose self time was `self_ns`) to layers
/// and count its work into `layers`. Runs after the traced pass, so its
/// replays do not disturb the ops being timed.
pub fn attribute(
    op: &Op,
    i: usize,
    out: &Outcome,
    self_ns: u64,
    tr: &mut Tracer,
    layers: &mut Layers,
) {
    match out {
        Outcome::Exact(_) => {
            let pats = op.pats.as_ref().expect("sweep ops carry lane patterns");
            attribute_sweep::<ExactWord>(&op.design, pats, out, i, tr, layers, self_ns);
        }
        Outcome::Window(_) => {
            let pats = op.pats.as_ref().expect("sweep ops carry lane patterns");
            attribute_sweep::<WindowWord>(&op.design, pats, out, i, tr, layers, self_ns);
        }
        Outcome::Prove(p) => {
            if let Ok(d) = &p.0 {
                layers.declared_states += d.states as u64;
            }
            layers.adversarial.0 += p.1.states as u64;
            layers.adversarial.1 += p.1.transitions;
            layers.peak_arena_bytes = layers.peak_arena_bytes.max(p.1.peak_arena_bytes as u64);
        }
        Outcome::Edit(s) => {
            layers.diagnostics += s.diags.len() as u64;
            layers.cache.0 += s.cache.0;
            layers.cache.1 += s.cache.1;
        }
        Outcome::Error(_) => {}
    }
}

/// Decompose a sweep op after the fact: replay the executed cycles on
/// a fresh engine (`sim.kernel`). What the op spent beyond that and its
/// own compile (an adopted `sim.compile` child span) is the recurrence
/// detector (`sim.detect`) in the exact sweep, and engine set-up and
/// read-back (`op.self`) in the window sweep.
fn attribute_sweep<W: LaneWord>(
    d: &Design,
    pats: &LanePatterns,
    out: &Outcome,
    i: usize,
    tr: &mut Tracer,
    layers: &mut Layers,
    self_ns: u64,
) {
    let cycles = match out {
        Outcome::Exact(m) => {
            layers.cycles_executed += m.cycles;
            layers.cycles_needed += m
                .periodicity
                .iter()
                .flatten()
                .map(|p| p.transient + p.period)
                .max()
                .unwrap_or(0);
            let converged: u64 = m.converged.iter().map(|w| u64::from(w.count_ones())).sum();
            layers.lanes_converged.0 += converged;
            layers.lanes_converged.1 += m.lanes as u64;
            m.cycles
        }
        Outcome::Window(m) => m.cycles,
        _ => return,
    };
    let prog = Arc::new(d.program.clone());
    let mut engine = BatchEngine::<W>::from_patterns(Arc::clone(&prog), pats);
    let ((), kernel_ns) = tr.replay("sim.kernel", i, || engine.run_patterns(pats, cycles));
    let mut counted = BatchEngine::<W>::from_patterns(prog, pats);
    let mut kc = counted.kernel_counters();
    counted.run_patterns_counted(pats, cycles, &mut kc);
    layers.kernel_lane_cycles += cycles * W::LANES as u64;
    layers.kernel_ops_retired += kc.total_ops();
    if matches!(out, Outcome::Exact(_)) {
        layers.detect_ns += self_ns.saturating_sub(kernel_ns);
    }
}

/// One design-edit session, each step a call through `w`.
fn edit_session<W: Wrap>(d: &Design, w: &mut W) -> Result<EditSession, String> {
    let parsed = w
        .call("graph.parse", || parse_netlist_spanned(&d.text))
        .map_err(|e| e.message())?;
    let netlist = parsed.netlist;
    let diags = w.call("lint.rules", || lint(&netlist, &parsed.source_map));
    let mut cache = ThroughputCache::new();
    let relays = netlist.relays();
    let choices = w
        .call("analysis.search", || {
            size_each_relay(&netlist, &relays, MAX_CAP, &mut cache)
        })
        .map_err(|e| e.to_string())?;
    let files = vec![(d.name.clone(), diags)];
    let json = w.call("lint.render", || render_json(&files));
    let text = w.call("graph.write", || write_netlist(&netlist));
    let diags = files.into_iter().next().map(|f| f.1).unwrap_or_default();
    Ok(EditSession {
        diags,
        choices,
        cache: (cache.hits(), cache.misses()),
        json,
        text,
    })
}

/// The untimed verdict and exact work counts of one op.
#[derive(Debug, Clone, Copy)]
pub struct Checked {
    /// The op's output passed its check.
    pub ok: bool,
    /// Lane-cycles the op simulated: one environment scenario advanced
    /// one clock cycle. A model-checker transition is one; so is each
    /// cycle of a declared-environment lasso.
    pub lane_cycles: u64,
    /// Control states the op established: interned by the model
    /// checker, recorded by the recurrence detector, or — in the window
    /// sweep, where nothing records them — stepped.
    pub states: u64,
}

/// Absorb every exact result of `out` into `digest`: ratios,
/// periodicities, token counts, verdicts, state counts, cache counts
/// and the rendered texts.
pub fn digest(out: &Outcome, digest: &mut Digest) {
    match out {
        Outcome::Exact(m) => {
            digest.u64(m.cycles);
            for lane in 0..m.lanes {
                let p = m.periodicity[lane].map_or((u64::MAX, 0), |p| (p.transient, p.period));
                digest.u64(p.0);
                digest.u64(p.1);
                for row in &m.throughput {
                    digest.u64(row[lane].num());
                    digest.u64(row[lane].den());
                }
            }
        }
        Outcome::Window(m) => {
            for row in &m.counts {
                for &(valid, void) in row {
                    digest.u64(valid);
                    digest.u64(void);
                }
            }
        }
        Outcome::Prove(p) => {
            let adv = &p.1;
            digest.str(&format!("{:?}", adv.verdict));
            digest.u64(adv.states as u64);
            digest.u64(adv.transitions);
            if let Ok(dp) = &p.0 {
                digest.u64(dp.states as u64);
                digest.u64(dp.stem);
                digest.u64(dp.period);
                digest.u64(dp.dead_shells.len() as u64);
                for (_, r) in &dp.throughput {
                    digest.u64(r.num());
                    digest.u64(r.den());
                }
                for &(_, occ, cap) in &dp.relay_bounds {
                    digest.u64(u64::from(occ));
                    digest.u64(u64::from(cap));
                }
            }
        }
        Outcome::Edit(s) => {
            for diag in &s.diags {
                digest.str(&format!("{:?}", diag.rule));
            }
            for c in &s.choices {
                digest.u64(u64::from(c.capacity));
                digest.u64(c.throughput.num());
                digest.u64(c.throughput.den());
            }
            digest.u64(s.cache.0);
            digest.u64(s.cache.1);
            digest.str(&s.json);
            digest.str(&s.text);
        }
        Outcome::Error(e) => digest.str(e),
    }
}

/// Check op `i`'s output against independent evidence and count its
/// exact work. Never timed.
#[must_use]
pub fn check(op: &Op, i: usize, out: &Outcome) -> Checked {
    let d = &op.design;
    match out {
        Outcome::Exact(m) => {
            let pats = op.pats.as_ref().expect("sweep ops carry lane patterns");
            let ok = m.all_converged()
                && (0..PROVED_LANES).all(|k| reproves(d, pats, m, (i * 97 + k * 131) % m.lanes));
            let states = m
                .periodicity
                .iter()
                .flatten()
                .map(|p| p.transient + p.period)
                .sum();
            Checked {
                ok,
                lane_cycles: m.cycles * m.lanes as u64,
                states,
            }
        }
        Outcome::Window(m) => {
            let pats = op.pats.as_ref().expect("sweep ops carry lane patterns");
            let mut ok = m.cycles == WINDOW;
            for (j, row) in m.counts.iter().enumerate() {
                for (lane, &(valid, void)) in row.iter().enumerate() {
                    // A sink consumes one token, valid or void, on every
                    // cycle it does not stall.
                    let p = pats.sink_pattern(j, lane);
                    let period = p.period().expect("sweep stall ramps are periodic");
                    let stalls = (0..period).filter(|&c| p.at(c)).count() as u64 * WINDOW / period;
                    ok &= valid + void + stalls == WINDOW;
                }
            }
            ok &= scalar_matches(d, pats, m, (i * 97) % m.lanes);
            let lane_cycles = m.cycles * m.lanes as u64;
            Checked {
                ok,
                lane_cycles,
                states: lane_cycles,
            }
        }
        Outcome::Prove(p) => {
            let (declared, adv) = (&p.0, &p.1);
            let mut ok = adv.complete && adv.verdict != Verdict::Unknown;
            ok &= (adv.verdict == Verdict::Deadlock) == adv.counterexample.is_some();
            if let Some(cex) = &adv.counterexample {
                ok &= confirm_stuck(&d.netlist, cex).is_ok();
            }
            let mut counts = Checked {
                ok,
                lane_cycles: adv.transitions,
                states: adv.states as u64,
            };
            match declared {
                Ok(dp) => {
                    if dp.deadlock() {
                        counts.ok &= dp
                            .counterexample(&d.netlist)
                            .is_some_and(|cex| confirm_stuck(&d.netlist, &cex).is_ok());
                    }
                    counts.lane_cycles += dp.stem + dp.period;
                    counts.states += dp.states as u64;
                }
                Err(_) => counts.ok = false,
            }
            counts
        }
        Outcome::Edit(s) => Checked {
            ok: edit_holds(d, s),
            lane_cycles: op.lint_lasso,
            states: op.lint_lasso,
        },
        Outcome::Error(_) => Checked {
            ok: false,
            lane_cycles: 0,
            states: 0,
        },
    }
}

/// `d`'s netlist carrying lane `lane`'s environment.
fn lane_netlist(d: &Design, pats: &LanePatterns, lane: usize) -> Netlist {
    let mut n = d.netlist.clone();
    for (j, s) in n.sources().into_iter().enumerate() {
        n.set_source_pattern(s, pats.source_pattern(j, lane).clone());
    }
    for (j, s) in n.sinks().into_iter().enumerate() {
        n.set_sink_pattern(s, pats.sink_pattern(j, lane).clone());
    }
    n
}

/// The model checker proves lane `lane`'s throughputs equal to the
/// sweep's.
fn reproves(d: &Design, pats: &LanePatterns, m: &BatchPeriodicMeasurement, lane: usize) -> bool {
    let Ok(proof) = check_declared(&lane_netlist(d, pats, lane), &McConfig::default()) else {
        return false;
    };
    m.sinks.iter().enumerate().all(|(j, sink)| {
        proof
            .throughput
            .iter()
            .any(|&(node, r)| node == *sink && r == m.throughput[j][lane])
    })
}

/// A scalar skeleton run of lane `lane` counts the same tokens.
fn scalar_matches(d: &Design, pats: &LanePatterns, m: &BatchMeasurement, lane: usize) -> bool {
    let Ok(mut sys) = SkeletonSystem::new(&lane_netlist(d, pats, lane)) else {
        return false;
    };
    sys.run(m.cycles);
    m.sinks
        .iter()
        .enumerate()
        .all(|(j, &s)| sys.sink_counts(s) == Some(m.counts[j][lane]))
}

/// The session wrote the design back unchanged, rendered every
/// diagnostic, and sized every relay correctly: an uncached, freshly
/// compiled [`measure`] of the design with the relay at the chosen
/// capacity, and at `MAX_CAP`, reaches the reported throughput, and one
/// place less falls short of it.
fn edit_holds(d: &Design, s: &EditSession) -> bool {
    let round_trip = s.text == d.text
        && matches!(
            parse_netlist_spanned(&s.text).map(|p| SettleProgram::compile(&p.netlist)),
            Ok(Ok(p)) if p.stable_structural_hash() == d.program.stable_structural_hash()
        );
    let rendered = s.json.matches("\"rule\": ").count() == s.diags.len()
        && s.json.contains(&format!("\"{}\"", d.name));
    let relays = d.netlist.relays();
    let rate = |relay, cap| {
        let mut n = d.netlist.clone();
        n.set_relay_kind(relay, RelayKind::Fifo(cap));
        measure(&n).ok().and_then(|m| m.system_throughput())
    };
    let sized = s.choices.len() == relays.len()
        && s.choices.iter().zip(&relays).all(|(c, &r)| {
            c.relay == r
                && (2..=MAX_CAP).contains(&c.capacity)
                && rate(r, MAX_CAP) == Some(c.throughput)
                && rate(r, c.capacity) == Some(c.throughput)
                && (c.capacity == 2
                    || rate(r, c.capacity - 1).is_some_and(|t| {
                        t.num() * c.throughput.den() < c.throughput.num() * t.den()
                    }))
        });
    round_trip && rendered && sized
}

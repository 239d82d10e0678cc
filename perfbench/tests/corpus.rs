//! The benchmark's own guarantees: seeded, reproducible corpora chosen
//! from structure alone, and exact results that repeat.

use perfbench::corpus::{rekind_relays, Rng, Structure};
use perfbench::stats::Digest;
use perfbench::trace::Tracer;
use perfbench::workload::{attribute, digest, run, run_traced, setup, Bare, Layers, Op, Workload};

/// Every input an op receives, as text: the design and, for sweeps,
/// every lane's stall pattern.
fn inputs(c: &[Op]) -> Vec<String> {
    c.iter()
        .map(|op| {
            let mut s = op.design.text.clone();
            if let Some(p) = &op.pats {
                for j in 0..p.sink_count() {
                    for lane in 0..p.width() {
                        s += &format!("{:?}", p.sink_pattern(j, lane));
                    }
                }
            }
            s
        })
        .collect()
}

/// The three smallest ops, so the test stays quick in debug builds.
fn small_ops(c: &[Op]) -> Vec<(usize, &Op)> {
    let mut ops: Vec<_> = c.iter().enumerate().collect();
    ops.sort_by_key(|(_, op)| op.design.structure.shells + op.design.structure.relays);
    ops.truncate(3);
    ops
}

fn result_digest(w: Workload, c: &[Op]) -> String {
    let mut d = Digest::default();
    for (_, op) in small_ops(c) {
        digest(&run(w, op, &mut Bare), &mut d);
    }
    d.hex()
}

fn traced_counts(w: Workload, c: &[Op]) -> (String, String) {
    let mut tr = Tracer::default();
    let mut layers = Layers::default();
    let mut d = Digest::default();
    for (i, op) in small_ops(c) {
        let (out, self_ns) = run_traced(w, op, i, &mut tr, &mut layers);
        attribute(op, i, &out, self_ns, &mut tr, &mut layers);
        digest(&out, &mut d);
    }
    (d.hex(), format!("{layers:?}"))
}

fn timing_free(layers: &str) -> String {
    // `detect_ns` is a time; every other field is a count.
    layers
        .split(", ")
        .filter(|f| !f.contains("detect_ns"))
        .collect::<Vec<_>>()
        .join(", ")
}

#[test]
fn same_seed_gives_same_corpus_results_and_counts() {
    for w in Workload::ALL {
        let (a, b) = (setup(w, 7), setup(w, 7));
        assert_eq!(inputs(&a), inputs(&b), "{}", w.name());
        let untraced = result_digest(w, &a);
        assert_eq!(untraced, result_digest(w, &b), "{}", w.name());
        let (traced_a, counts_a) = traced_counts(w, &a);
        let (traced_b, counts_b) = traced_counts(w, &b);
        assert_eq!(traced_a, untraced, "tracing changed {}'s results", w.name());
        assert_eq!(traced_a, traced_b, "{}", w.name());
        assert_eq!(
            timing_free(&counts_a),
            timing_free(&counts_b),
            "{}",
            w.name()
        );
    }
}

#[test]
fn different_seed_gives_different_corpus() {
    for w in Workload::ALL {
        assert_ne!(inputs(&setup(w, 7)), inputs(&setup(w, 8)), "{}", w.name());
    }
}

#[test]
fn corpus_selection_reads_only_structure() {
    for w in Workload::ALL {
        // The admitted cells are exactly the grid cells whose structure
        // the band admits, and every op is built on one of them.
        let cells = w.cells();
        for cell in w.grid() {
            let admitted = w.band().admits(&Structure::of(&cell.netlist()));
            assert_eq!(
                admitted,
                cells.contains(&cell),
                "{} {}",
                w.name(),
                cell.name()
            );
        }
        // The seed changes environments, relay kinds and order, never
        // the structural mix a pass covers.
        let mix = |seed| {
            let mut s: Vec<_> = setup(w, seed)
                .iter()
                .map(|op| format!("{:?}", op.design.structure))
                .collect();
            s.sort();
            s
        };
        assert_eq!(mix(1), mix(2), "{}", w.name());
        assert_eq!(mix(1), mix(3), "{}", w.name());
    }
    // What the seed does change leaves a design's structure alone.
    let mut rng = Rng::new(5, 0);
    for cell in Workload::EditLoop.cells() {
        let mut n = cell.netlist();
        let before = Structure::of(&n);
        rekind_relays(&mut n, &mut rng);
        assert_eq!(Structure::of(&n), before, "{}", cell.name());
    }
}

#[test]
fn every_pass_has_ten_ops_beyond_p90() {
    for w in Workload::ALL {
        assert!(setup(w, 1).len() >= 100, "{}", w.name());
    }
}

#[test]
fn edit_corpus_puts_fifos_everywhere() {
    // Relay kinds are drawn alike in every family: fork-joins get
    // over-provisioned FIFOs like any other design.
    let ops = setup(Workload::EditLoop, 1);
    let fork_join_fifos = ops
        .iter()
        .filter(|op| op.design.name.starts_with("forkjoin"))
        .filter(|op| op.design.text.contains("fifo"))
        .count();
    assert!(fork_join_fifos > 0);
}

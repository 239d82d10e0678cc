//! Fix-it round trip: applying every emitted fix-it yields a netlist
//! on which the fixed rule no longer fires and whose simulated
//! throughput is no worse than before.

use lip_core::pearl::IdentityPearl;
use lip_core::RelayKind;
use lip_graph::{generate, Netlist, SourceMap};
use lip_lint::{apply_fixits, apply_fixits_compiled, lint, RuleId};
use lip_sim::{measure, Ratio, SettleProgram};

/// Simulated system throughput (all corpus environments are periodic).
fn throughput(netlist: &Netlist) -> Ratio {
    measure(netlist)
        .expect("valid netlist")
        .system_throughput()
        .expect("has sinks")
}

fn assert_roundtrip(name: &str, netlist: &Netlist) {
    let diags = lint(netlist, &SourceMap::new());
    let fixed_rules: Vec<RuleId> = diags
        .iter()
        .filter(|d| d.fix.is_some())
        .map(|d| d.rule)
        .collect();
    if fixed_rules.is_empty() {
        return;
    }
    let mut fixed = netlist.clone();
    let report = apply_fixits(&mut fixed, &diags).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert!(
        report.total_inserted() + report.resized.len() > 0,
        "{name}: fix did nothing"
    );
    fixed.validate().unwrap_or_else(|e| panic!("{name}: {e}"));

    let after = lint(&fixed, &SourceMap::new());
    for rule in &fixed_rules {
        assert!(
            !after.iter().any(|d| d.rule == *rule),
            "{name}: {rule} still fires after its fix"
        );
    }

    let (before_t, after_t) = (throughput(netlist), throughput(&fixed));
    assert!(
        after_t.num() * before_t.den() >= before_t.num() * after_t.den(),
        "{name}: throughput regressed {before_t} -> {after_t}"
    );
}

#[test]
fn named_corpus_roundtrips() {
    let mut back_to_back = Netlist::new();
    let s = back_to_back.add_source("in");
    let a = back_to_back.add_shell("a", IdentityPearl::new());
    let b = back_to_back.add_shell("b", IdentityPearl::new());
    let c = back_to_back.add_shell("c", IdentityPearl::new());
    let t = back_to_back.add_sink("out");
    back_to_back.connect(s, 0, a, 0).unwrap();
    back_to_back.connect(a, 0, b, 0).unwrap();
    back_to_back.connect(b, 0, c, 0).unwrap();
    back_to_back.connect(c, 0, t, 0).unwrap();

    let corpus: Vec<(&str, Netlist)> = vec![
        ("back_to_back_chain", back_to_back),
        ("fig1", generate::fig1().netlist),
        ("fork_join(3,0,2)", generate::fork_join(3, 0, 2).netlist),
        ("tree_no_relays", generate::tree(2, 2, 0).netlist),
        (
            "ring(2,3,full)",
            generate::ring(2, 3, RelayKind::Full).netlist,
        ),
        (
            "chain(4,0,full)",
            generate::chain(4, 0, RelayKind::Full).netlist,
        ),
    ];
    for (name, netlist) in &corpus {
        assert_roundtrip(name, netlist);
    }
}

#[test]
fn random_corpus_roundtrips() {
    let mut fixed_any = 0;
    for seed in 0..40u64 {
        let (family, netlist) = generate::random_family(seed);
        if netlist.validate().is_err() {
            continue;
        }
        let diags = lint(&netlist, &SourceMap::new());
        if diags.iter().any(|d| d.fix.is_some()) {
            assert_roundtrip(&format!("seed {seed} {family:?}"), &netlist);
            fixed_any += 1;
        }
    }
    assert!(fixed_any >= 3, "corpus produced too few fixable designs");
}

/// Fig. 1's equalize fix lifts it from 4/5 to the tree optimum T = 1.
#[test]
fn equalizing_fig1_reaches_full_rate() {
    let mut n = generate::fig1().netlist;
    let diags = lint(&n, &SourceMap::new());
    apply_fixits(&mut n, &diags).unwrap();
    assert_eq!(throughput(&n), Ratio::new(1, 1));
    assert!(lint(&n, &SourceMap::new()).is_empty());
}

/// Fork-joins whose relays are FIFOs: equalization must count a
/// `Fifo(k)` station as the stage it is (one cycle forward, no initial
/// token), exactly as the throughput model does. Both fix-it appliers
/// must clear LIP004 and never lower the throughput.
///
/// Equalizing lowers the FIFOs' steady occupancy, so LIP007 (oversized
/// FIFO) may fire again afterwards with a smaller proved capacity; the
/// next `--fix` pass takes it. That is expected and not asserted here.
#[test]
fn fifo_fork_join_grid_fixes_never_slow_down() {
    let mut checked = 0;
    for (r1, r2, s) in (0..3).flat_map(|a| (0..3).flat_map(move |b| (0..3).map(move |c| (a, b, c))))
    {
        for cap in 2..6 {
            for placement in ["long", "short", "all"] {
                let f = generate::fork_join(r1, r2, s);
                let relays = match placement {
                    "long" => f.long_relays.clone(),
                    "short" => f.short_relays.clone(),
                    _ => [f.long_relays.clone(), f.short_relays.clone()].concat(),
                };
                let mut netlist = f.netlist;
                for r in relays {
                    netlist.set_relay_kind(r, RelayKind::Fifo(cap));
                }
                let name = format!("fork_join({r1},{r2},{s}) fifo:{cap} on {placement}");
                let diags = lint(&netlist, &SourceMap::new());
                if !diags.iter().any(|d| d.rule == RuleId::Lip004) {
                    continue;
                }
                let before = throughput(&netlist);
                let mut plain = netlist.clone();
                apply_fixits(&mut plain, &diags).unwrap_or_else(|e| panic!("{name}: {e}"));
                let mut compiled = netlist.clone();
                let mut program = SettleProgram::compile(&compiled).unwrap();
                apply_fixits_compiled(&mut compiled, &mut program, &diags)
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                for (applier, fixed) in [
                    ("apply_fixits", &plain),
                    ("apply_fixits_compiled", &compiled),
                ] {
                    let after = throughput(fixed);
                    assert!(
                        after.num() * before.den() >= before.num() * after.den(),
                        "{name} via {applier}: throughput dropped {before} -> {after}"
                    );
                    assert!(
                        !lint(fixed, &SourceMap::new())
                            .iter()
                            .any(|d| d.rule == RuleId::Lip004),
                        "{name} via {applier}: LIP004 still fires"
                    );
                }
                checked += 1;
            }
        }
    }
    assert!(
        checked >= 100,
        "only {checked} FIFO fork-joins needed equalizing"
    );
}

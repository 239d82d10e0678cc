//! Path equalization: the paper's recipe for restoring full throughput
//! in feed-forward systems.
//!
//! *"To get the maximum T from a feedforward arrangement, it is necessary
//! to insert enough spare relay stations to make all converging paths of
//! the same length (path equalization)."*
//!
//! [`equalize`] inserts spare full relay stations on the faster inputs of
//! every join until all converging paths have equal forward latency. The
//! tests (and experiment `EXP-T6`) confirm the equalized system reaches
//! `T = 1`.

use std::collections::VecDeque;

use lip_core::RelayKind;
use lip_graph::topology::is_acyclic;
use lip_graph::{ChannelId, Netlist, NetlistError, NodeId};

/// Result of [`equalize`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EqualizeReport {
    /// Relay stations inserted, as `(channel, count)` per originally
    /// unbalanced join input.
    pub insertions: Vec<(ChannelId, usize)>,
}

impl EqualizeReport {
    /// Total spare relay stations inserted.
    #[must_use]
    pub fn total_inserted(&self) -> usize {
        self.insertions.iter().map(|(_, c)| c).sum()
    }
}

/// Insert spare full relay stations so that every join's converging
/// paths have equal forward latency. Mutates `netlist` in place.
///
/// # Errors
///
/// Returns [`NetlistError::Empty`] when the netlist is cyclic — the
/// paper's equalization applies to feed-forward systems; loops adapt by
/// themselves ("the protocol itself will adapt to such a speed without
/// any need for path equalization").
pub fn equalize(netlist: &mut Netlist) -> Result<EqualizeReport, NetlistError> {
    if !is_acyclic(netlist) {
        return Err(NetlistError::Empty {
            what: "acyclic topology (equalization is feed-forward only)",
        });
    }
    let mut report = EqualizeReport::default();
    // Fixpoint: repeatedly find the first unbalanced join and fix it.
    // Insertions change downstream debts, so recompute each round.
    loop {
        let times = relay_debt(netlist);
        let mut fixed_any = false;
        for (id, node) in netlist
            .nodes()
            .map(|(i, n)| (i, n.kind().num_inputs()))
            .collect::<Vec<_>>()
        {
            if node < 2 {
                continue;
            }
            let ins: Vec<(ChannelId, u64)> = (0..node)
                .map(|p| {
                    let ch = netlist.in_channel(id, p).expect("validated");
                    let producer = netlist.channel(ch).producer.node;
                    (ch, times[producer.index()])
                })
                .collect();
            let max = ins.iter().map(|(_, t)| *t).max().expect("join has inputs");
            for (ch, t) in ins {
                let deficit = usize::try_from(max - t).expect("latency fits usize");
                if deficit > 0 {
                    let mut target = ch;
                    for _ in 0..deficit {
                        let rs = netlist.insert_relay_on_channel(target, RelayKind::Full);
                        // Chain further insertions after the new relay.
                        target = netlist.out_channel(rs, 0).expect("just connected");
                    }
                    report.insertions.push((ch, deficit));
                    fixed_any = true;
                }
            }
            if fixed_any {
                break; // recompute times before the next join
            }
        }
        if !fixed_any {
            return Ok(report);
        }
    }
}

/// *Void debt* at each node's output: the maximum number of relay
/// stages on any source path to it. Shells are neutral (they add a
/// pipeline stage **and** an initial valid token), half stations are
/// neutral (no stage, no token); full and FIFO stations (a stage with
/// no token, [`RelayKind::forward_latency`] 1) unbalance converging
/// paths. The paper's "path length" for equalization is exactly this
/// stage count — the same one the throughput model uses.
fn relay_debt(netlist: &Netlist) -> Vec<u64> {
    let n = netlist.node_count();
    let ids: Vec<NodeId> = netlist.nodes().map(|(id, _)| id).collect();
    let mut indegree: Vec<usize> = ids
        .iter()
        .map(|id| netlist.predecessors(*id).len())
        .collect();
    let mut debt = vec![0u64; n];
    let mut queue: VecDeque<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    while let Some(i) = queue.pop_front() {
        let id = ids[i];
        let own = match netlist.node(id).kind() {
            lip_graph::NodeKind::Relay { kind } => kind.forward_latency(),
            _ => 0,
        };
        let out = debt[i] + own;
        debt[i] = out;
        for s in netlist.successors(id) {
            debt[s.index()] = debt[s.index()].max(out);
            indegree[s.index()] -= 1;
            if indegree[s.index()] == 0 {
                queue.push_back(s.index());
            }
        }
    }
    debt
}

#[cfg(test)]
mod tests {
    use super::*;
    use lip_graph::generate;
    use lip_sim::{measure, Ratio};

    #[test]
    fn equalized_fig1_reaches_unit_throughput() {
        let mut f = generate::fig1();
        let before = measure(&f.netlist).unwrap().system_throughput().unwrap();
        assert_eq!(before, Ratio::new(4, 5));
        let report = equalize(&mut f.netlist).unwrap();
        assert_eq!(report.total_inserted(), 1); // short branch gets 1 spare
        f.netlist.validate().unwrap();
        let after = measure(&f.netlist).unwrap().system_throughput().unwrap();
        assert_eq!(after, Ratio::new(1, 1));
    }

    #[test]
    fn equalize_sweep_restores_unit_throughput() {
        for (r1, r2, s) in [(2usize, 1usize, 1usize), (2, 2, 0), (0, 3, 1), (3, 0, 2)] {
            let mut f = generate::fork_join(r1, r2, s);
            equalize(&mut f.netlist).unwrap();
            f.netlist.validate().unwrap();
            let t = measure(&f.netlist).unwrap().system_throughput().unwrap();
            assert_eq!(t, Ratio::new(1, 1), "fork_join({r1},{r2},{s})");
        }
    }

    #[test]
    fn balanced_systems_need_no_insertion() {
        let mut f = generate::fork_join(1, 1, 2); // already balanced
        let report = equalize(&mut f.netlist).unwrap();
        assert_eq!(report.total_inserted(), 0);
        let mut t = generate::tree(2, 2, 1);
        assert_eq!(equalize(&mut t.netlist).unwrap().total_inserted(), 0);
    }

    #[test]
    fn cyclic_netlists_are_rejected() {
        let mut r = generate::ring(2, 1, lip_core::RelayKind::Full);
        assert!(equalize(&mut r.netlist).is_err());
    }
}

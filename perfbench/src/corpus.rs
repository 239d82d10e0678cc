//! Seeded corpora chosen from structural properties only.
//!
//! Each workload draws its designs from a fixed *grid* of structural
//! cells (family and generator parameters). A cell joins the corpus only
//! when [`Band::admits`] accepts its [`Structure`] — never because of a
//! measured time or a simulated result. The seed (`--seed`) then decides
//! everything else: the order of the ops, the environment of every op
//! (stall ramps, endpoint patterns) and, for the edit loop, the relay
//! kinds of every design. Keeping the structural mix fixed while the
//! seed varies the rest is what keeps a run's cost nearly independent
//! of the seed: a handful of reconvergent cells can need 50× the cycles
//! of their neighbours, so drawing structures at random made the cost of
//! a run swing with the seed.

use lip_core::{Pattern, RelayKind};
use lip_graph::{generate, parse_netlist_spanned, write_netlist, Netlist};
use lip_sim::SettleProgram;

/// SplitMix64: a tiny, stable, dependency-free generator, so a seed
/// means the same corpus on every toolchain and commit.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` on stream `stream` (one stream per
    /// workload, so corpora never share draws).
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo <= hi, "empty range");
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.range(0, i));
        }
    }
}

/// The generator families of the grids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Linear pipeline ([`generate::chain`]).
    Chain,
    /// Feedback loop with an output tap ([`generate::ring`]).
    Ring,
    /// Fig. 1 fork-join reconvergence ([`generate::fork_join`]).
    ForkJoin,
    /// Binary fanout tree ([`generate::tree`]).
    Tree,
    /// Two-source reconvergence ([`generate::reconvergent`]).
    Reconvergent,
}

/// One structural grid point: a family, its generator parameters and
/// which relay stations are half stations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Generator family.
    pub family: Family,
    /// Generator parameters, in the generator's argument order.
    pub params: [usize; 3],
    /// Every `half_every`-th relay (in netlist order) becomes a half
    /// station; 0 keeps every generated relay full.
    pub half_every: usize,
}

impl Cell {
    /// Build the cell's netlist with the generator's default
    /// environment (sources always valid, sinks never stopping).
    #[must_use]
    pub fn netlist(&self) -> Netlist {
        let [a, b, c] = self.params;
        let mut n = match self.family {
            Family::Chain => generate::chain(a, b, RelayKind::Full).netlist,
            Family::Ring => generate::ring(a, b, RelayKind::Full).netlist,
            Family::ForkJoin => generate::fork_join(a, b, c).netlist,
            Family::Tree => generate::tree(a, 2, b).netlist,
            Family::Reconvergent => generate::reconvergent(a, b).netlist,
        };
        if self.half_every > 0 {
            for (i, r) in n.relays().into_iter().enumerate() {
                if i % self.half_every == 0 {
                    n.set_relay_kind(r, RelayKind::Half);
                }
            }
        }
        n
    }

    /// Short name, e.g. `forkjoin_2_1_0_h0`.
    #[must_use]
    pub fn name(&self) -> String {
        let fam = match self.family {
            Family::Chain => "chain",
            Family::Ring => "ring",
            Family::ForkJoin => "forkjoin",
            Family::Tree => "tree",
            Family::Reconvergent => "reconv",
        };
        let [a, b, c] = self.params;
        format!("{fam}_{a}_{b}_{c}_h{}", self.half_every)
    }
}

/// Cartesian product of `family` over the parameter lists.
fn cells(family: Family, a: &[usize], b: &[usize], c: &[usize], halves: &[usize]) -> Vec<Cell> {
    let mut out = Vec::new();
    for &h in halves {
        for &x in a {
            for &y in b {
                for &z in c {
                    out.push(Cell {
                        family,
                        params: [x, y, z],
                        half_every: h,
                    });
                }
            }
        }
    }
    out
}

/// The mid-size ladder of the two sweeps: chains, rings, fork-joins,
/// trees and reconvergent pairs with full relay stations.
#[must_use]
pub fn sweep_grid() -> Vec<Cell> {
    let mut g = cells(Family::Chain, &[4, 8, 12, 16], &[1, 2], &[0], &[0]);
    g.extend(cells(
        Family::Ring,
        &[2, 3, 4, 5, 6, 7],
        &[1, 2, 3],
        &[0],
        &[0],
    ));
    g.extend(cells(
        Family::ForkJoin,
        &[1, 2, 3],
        &[0, 1, 2],
        &[0, 1, 2],
        &[0],
    ));
    g.extend(cells(Family::Tree, &[1, 2], &[1, 2, 3], &[0], &[0]));
    g.extend(cells(
        Family::Reconvergent,
        &[2, 4, 6, 8],
        &[0, 1, 2],
        &[0],
        &[0],
    ));
    g
}

/// Candidate systems of the proof workload: small designs of every
/// family with none, every other, or every relay station half.
#[must_use]
pub fn prove_grid() -> Vec<Cell> {
    let h = [0, 2, 1];
    let mut g = cells(Family::Chain, &[2, 3, 4], &[1, 2], &[0], &h);
    g.extend(cells(
        Family::Ring,
        &[2, 3, 4, 6, 8],
        &[1, 2, 3, 4],
        &[0],
        &h,
    ));
    g.extend(cells(
        Family::ForkJoin,
        &[1, 2, 3],
        &[0, 1, 2],
        &[0, 1, 2],
        &h,
    ));
    g.extend(cells(Family::Tree, &[1], &[0, 1], &[0], &h));
    g.extend(cells(
        Family::Reconvergent,
        &[2, 3, 4, 5],
        &[0, 1, 2],
        &[0],
        &h,
    ));
    g
}

/// Base structures of the edit loop; every op re-kinds their relays.
#[must_use]
pub fn edit_grid() -> Vec<Cell> {
    let mut g = cells(Family::Chain, &[4, 6, 8], &[0, 1, 2], &[0], &[0]);
    g.extend(cells(Family::Ring, &[3, 4, 5, 6], &[2, 3, 4], &[0], &[0]));
    g.extend(cells(
        Family::ForkJoin,
        &[2, 3, 4],
        &[0, 1, 2],
        &[0, 1],
        &[0],
    ));
    g.extend(cells(Family::Tree, &[2], &[0, 1], &[0], &[0]));
    g.extend(cells(
        Family::Reconvergent,
        &[3, 4, 5, 6],
        &[0, 1, 2],
        &[0],
        &[0],
    ));
    g
}

/// The structural summary of a design: everything corpus selection is
/// allowed to read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Structure {
    /// Shells (simple and buffered).
    pub shells: usize,
    /// Relay stations of every kind.
    pub relays: usize,
    /// Environment sources.
    pub sources: usize,
    /// Environment sinks.
    pub sinks: usize,
}

impl Structure {
    /// Summarise `netlist`.
    #[must_use]
    pub fn of(netlist: &Netlist) -> Self {
        Structure {
            shells: netlist.shells().len(),
            relays: netlist.relays().len(),
            sources: netlist.sources().len(),
            sinks: netlist.sinks().len(),
        }
    }
}

/// Inclusive structural admission band of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Band {
    /// Shells + relays.
    pub size: (usize, usize),
    /// Sources + sinks.
    pub endpoints: (usize, usize),
}

impl Band {
    /// Whether a design with structure `s` belongs to the corpus. Every
    /// corpus design has a sink to measure.
    #[must_use]
    pub fn admits(&self, s: &Structure) -> bool {
        let within = |v: usize, (lo, hi): (usize, usize)| lo <= v && v <= hi;
        s.sinks >= 1
            && within(s.shells + s.relays, self.size)
            && within(s.sources + s.sinks, self.endpoints)
    }
}

/// One corpus design, prepared exactly as a user loads it: written to
/// text, parsed back with spans, and compiled.
#[derive(Debug)]
pub struct Design {
    /// Unique name: cell and op index.
    pub name: String,
    /// The design as `.lid` text.
    pub text: String,
    /// The parsed design.
    pub netlist: Netlist,
    /// `netlist` compiled once.
    pub program: SettleProgram,
    /// Structural summary.
    pub structure: Structure,
}

/// Write `netlist` to text, parse it back with spans and compile it:
/// the real load path.
///
/// # Panics
///
/// Panics if a generated design does not survive the round trip — the
/// generators only build valid netlists, so that is a bug.
#[must_use]
pub fn prepare(name: String, netlist: &Netlist) -> Design {
    let text = write_netlist(netlist);
    let parsed = parse_netlist_spanned(&text).expect("generated design parses");
    parsed
        .netlist
        .validate()
        .expect("generated design validates");
    let program = SettleProgram::compile(&parsed.netlist).expect("generated design compiles");
    let structure = Structure::of(&parsed.netlist);
    Design {
        name,
        text,
        netlist: parsed.netlist,
        program,
        structure,
    }
}

/// The cells of `grid` whose default build `band` admits.
#[must_use]
pub fn admitted(grid: &[Cell], band: &Band) -> Vec<Cell> {
    grid.iter()
        .copied()
        .filter(|c| band.admits(&Structure::of(&c.netlist())))
        .collect()
}

/// Op order of one pass: `rounds` visits of every cell, each round in a
/// seeded order.
pub fn schedule(cells: &[Cell], rounds: usize, rng: &mut Rng) -> Vec<Cell> {
    let mut out = Vec::with_capacity(cells.len() * rounds);
    for _ in 0..rounds {
        let mut round = cells.to_vec();
        rng.shuffle(&mut round);
        out.extend(round);
    }
    out
}

/// A seeded periodic endpoint pattern the text format can carry:
/// never, every cycle (a stalled sink or dead source), or every
/// `period`-th cycle.
pub fn endpoint_pattern(rng: &mut Rng) -> Pattern {
    match rng.range(0, 7) {
        0 | 1 => Pattern::Never,
        2 => Pattern::EveryNth {
            period: 1,
            phase: 0,
        },
        _ => {
            let period = rng.range(2, 5) as u32;
            Pattern::EveryNth {
                period,
                phase: rng.range(0, period as usize - 1) as u32,
            }
        }
    }
}

/// Re-kind every relay of `netlist` at random — full, half or an
/// over-provisioned FIFO — as an edit-loop user would have left it.
pub fn rekind_relays(netlist: &mut Netlist, rng: &mut Rng) {
    for r in netlist.relays() {
        let kind = match rng.range(0, 2) {
            0 => RelayKind::Half,
            1 => RelayKind::Full,
            _ => RelayKind::Fifo(rng.range(3, 5) as u8),
        };
        netlist.set_relay_kind(r, kind);
    }
}

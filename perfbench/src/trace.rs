//! In-memory spans recorded around calls into the program's layers.
//!
//! The traced run wraps each public call an op makes in a [`Span`]
//! (layer, start, end, the op it belongs to, its parent span). Spans stay
//! in memory until the run ends and are then written out as a Chrome
//! trace. A layer's self time is its spans' duration minus the part its
//! child spans cover.
//!
//! Compilation and program patching happen inside other layers' calls
//! (a sweep compiles its netlist, the relay search patches its program
//! per probe), where no wrapper can reach. The program's own ambient
//! flight recorder marks them; [`Tracer::adopt`] turns those marks into
//! child spans of the wrapper call they ran in.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use lip_obs::flight::FlightDump;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer the call belongs to, e.g. `lint.rules`.
    pub layer: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Op the span belongs to.
    pub op: usize,
    /// Enclosing span, by index.
    pub parent: Option<usize>,
    /// `true` for an attribution replay: a repeat of part of the op's
    /// work, run after the op so its share of the op can be timed.
    pub replay: bool,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder for one run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    /// Every span recorded so far, in start order.
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer's epoch.
    #[must_use]
    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span; close it with [`end`](Self::end).
    pub fn begin(&mut self, layer: &'static str, op: usize, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            layer,
            start_ns,
            end_ns: start_ns,
            op,
            parent,
            replay: false,
        });
        self.spans.len() - 1
    }

    /// Close span `id`.
    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Run `f` inside a span of `layer` under `parent`.
    pub fn call<T>(
        &mut self,
        layer: &'static str,
        op: usize,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(layer, op, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Run `f` as an attribution replay of `layer` for `op`; returns
    /// `f`'s result and the replay's duration in nanoseconds.
    pub fn replay<T>(&mut self, layer: &'static str, op: usize, f: impl FnOnce() -> T) -> (T, u64) {
        let id = self.begin(layer, op, None);
        self.spans[id].replay = true;
        let out = f();
        self.end(id);
        (out, self.spans[id].dur_ns())
    }

    /// Adopt the flight-recorder spans of op `op` as child spans:
    /// `compile`/`settle_program` becomes `sim.compile` and
    /// `compile`/`patch_*` becomes `sim.patch`. Only outermost ones count
    /// (a relay-kind patch may run a capacity patch inside it). The
    /// recorder's origin is `origin_ns` on this tracer's clock. Each
    /// adopted span's parent is the innermost span of `op` that covers
    /// its midpoint. Returns how many `sim.compile` and `sim.patch`
    /// spans were adopted.
    pub fn adopt(&mut self, dump: &FlightDump, origin_ns: u64, op: usize) -> (u64, u64) {
        let mut marks: Vec<_> = dump
            .spans
            .iter()
            .filter_map(|r| {
                let layer = match (r.cat, r.name.as_str()) {
                    ("compile", "settle_program") => "sim.compile",
                    ("compile", n) if n.starts_with("patch_") => "sim.patch",
                    _ => return None,
                };
                let start_ns = origin_ns + r.start_ns;
                Some((start_ns, start_ns + r.dur_ns, layer))
            })
            .collect();
        marks.sort_unstable();
        let own: Vec<usize> = (0..self.spans.len())
            .filter(|&i| self.spans[i].op == op && !self.spans[i].replay)
            .collect();
        let (mut compiles, mut patches, mut covered_to) = (0, 0, 0);
        for (start_ns, end_ns, layer) in marks {
            if end_ns <= covered_to {
                continue;
            }
            covered_to = end_ns;
            let mid = start_ns + (end_ns - start_ns) / 2;
            let parent = own
                .iter()
                .copied()
                .filter(|&i| self.spans[i].start_ns <= mid && mid <= self.spans[i].end_ns)
                .max_by_key(|&i| self.spans[i].start_ns);
            self.spans.push(Span {
                layer,
                start_ns,
                end_ns,
                op,
                parent,
                replay: false,
            });
            if layer == "sim.compile" {
                compiles += 1;
            } else {
                patches += 1;
            }
        }
        (compiles, patches)
    }

    /// Self time per layer in nanoseconds: each span's duration minus
    /// the part its children cover. Replays are excluded; they repeat
    /// work rather than do it.
    #[must_use]
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child) {
            if !s.replay {
                *out.entry(s.layer).or_insert(0) += s.dur_ns().saturating_sub(*c);
            }
        }
        out
    }

    /// Total replay time per layer in nanoseconds.
    #[must_use]
    pub fn replay_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.replay) {
            *out.entry(s.layer).or_insert(0) += s.dur_ns();
        }
        out
    }

    /// Summed duration of the root (parentless, non-replay) spans: the
    /// time the ops themselves took.
    #[must_use]
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && !s.replay)
            .map(Span::dur_ns)
            .sum()
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto).
    #[must_use]
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"span\":{i},\"parent\":{parent}}}}}",
                s.layer,
                if s.replay { "replay" } else { "call" },
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.op,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_skips_replays() {
        let t = Tracer {
            spans: vec![
                Span {
                    layer: "op",
                    start_ns: 0,
                    end_ns: 100,
                    op: 0,
                    parent: None,
                    replay: false,
                },
                Span {
                    layer: "a",
                    start_ns: 10,
                    end_ns: 40,
                    op: 0,
                    parent: Some(0),
                    replay: false,
                },
                Span {
                    layer: "a",
                    start_ns: 200,
                    end_ns: 290,
                    op: 0,
                    parent: None,
                    replay: true,
                },
            ],
            ..Tracer::default()
        };
        let s = t.self_ns();
        assert_eq!(s["op"], 70);
        assert_eq!(s["a"], 30);
        assert_eq!(t.replay_ns()["a"], 90);
        assert_eq!(t.root_ns(), 100);
        assert!(t.chrome_json().contains("\"cat\":\"replay\""));
    }
}

//! Spans recorded from the benchmark's own code, around its calls into
//! each layer's public functions. Nothing inside `crates/` is instrumented.
//!
//! Spans are held in memory, written out as JSON lines when the replay
//! ends, and folded into per-name self times: a span's self time is its
//! duration minus its children's durations.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// 1-based id, in start order.
    pub id: u32,
    /// The span that caused this one (0 for a request's root span).
    pub parent: u32,
    /// The request (op index) the span belongs to.
    pub req: u32,
    /// Layer-qualified name, `module.path.function`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// `end - start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans, or — disabled — costs one branch per call, which is
/// what the untraced replay runs with to price the tracing itself.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    req: u32,
}

impl Tracer {
    /// A tracer; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            req: 0,
        }
    }

    /// Subsequent spans belong to request `req`.
    pub fn request(&mut self, req: u32) {
        self.req = req;
    }

    /// Open a span under the innermost open one. Returns its id (0 when
    /// disabled) for [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) -> u32 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied().unwrap_or(0),
            req: self.req,
            name,
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: u32) {
        if !self.enabled {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id as usize - 1].end_ns = now;
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Run `f` in a span recorded as a child of span `parent`, which has
    /// already closed. Used where a crate's public function does two
    /// layers' work with no seam between them (`parse_request` parses the
    /// embedded query itself): the inner layer's call is repeated right
    /// after, standalone, and charged against the outer span, so the outer
    /// layer's self time is what is left. The child's interval therefore
    /// lies *after* its parent's in the trace file.
    pub fn span_charged_to<T>(
        &mut self,
        parent: u32,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        self.open.push(parent);
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        self.open.pop();
        out
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SelfTime {
    /// Spans of this name.
    pub calls: u64,
    /// Their summed self time, nanoseconds.
    pub self_ns: u64,
}

impl SelfTime {
    /// Mean self time per call, microseconds.
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64 / 1000.0
        }
    }
}

/// Fold spans into self time per name: each span's duration minus the
/// summed durations of the spans that name it as parent.
pub fn fold(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut children_ns = vec![0u64; spans.len() + 1];
    for s in spans {
        children_ns[s.parent as usize] += s.duration_ns();
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.calls += 1;
        e.self_ns += s.duration_ns().saturating_sub(children_ns[s.id as usize]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 0,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children_on_a_hand_built_tree() {
        // request [0, 100)
        //   parse   [5, 25)            self 20 - 12 = 8
        //     lorel [25, 37) charged to parse (re-executed after it)
        //   execute [40, 90)           self 50 - 30 = 20
        //     scan  [45, 60), scan [60, 75)   self 15 each
        let spans = vec![
            span(1, 0, "request", 0, 100),
            span(2, 1, "parse", 5, 25),
            span(3, 2, "lorel", 25, 37),
            span(4, 1, "execute", 40, 90),
            span(5, 4, "scan", 45, 60),
            span(6, 4, "scan", 60, 75),
        ];
        let f = fold(&spans);
        assert_eq!(
            f["request"],
            SelfTime {
                calls: 1,
                self_ns: 100 - 20 - 50
            }
        );
        assert_eq!(
            f["parse"],
            SelfTime {
                calls: 1,
                self_ns: 8
            }
        );
        assert_eq!(
            f["lorel"],
            SelfTime {
                calls: 1,
                self_ns: 12
            }
        );
        assert_eq!(
            f["execute"],
            SelfTime {
                calls: 1,
                self_ns: 20
            }
        );
        assert_eq!(
            f["scan"],
            SelfTime {
                calls: 2,
                self_ns: 30
            }
        );
        assert_eq!(f["scan"].mean_us(), 0.015);
        // Self times partition the root's duration (plus the re-executed child).
        let total: u64 = f.values().map(|s| s.self_ns).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn tracer_nests_charges_and_disables() {
        let mut t = Tracer::new(true);
        t.request(7);
        let root = t.enter("root");
        let parse = t.enter("parse");
        t.exit(parse);
        t.span_charged_to(parse, "inner", || ());
        t.span("sibling", || ());
        t.exit(root);
        let s = t.spans();
        assert_eq!(
            s.iter().map(|s| (s.name, s.parent)).collect::<Vec<_>>(),
            vec![("root", 0), ("parse", 1), ("inner", 2), ("sibling", 1),]
        );
        assert!(s.iter().all(|s| s.req == 7 && s.end_ns >= s.start_ns));
        let mut line = Vec::new();
        t.write_jsonl(&mut line).unwrap();
        assert_eq!(String::from_utf8(line).unwrap().lines().count(), 4);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", || 3), 3);
        assert!(off.spans().is_empty());
    }
}
